def pytest_benchmark_update_json(config, benchmarks, output_json):
    # keep the summary statistics, not every round's time: benchmarks/ab.py
    # reads only each row's minimum
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
