def pytest_benchmark_update_json(config, benchmarks, output_json):
    # keep the summary statistics, not every round's time: benchmarks/ab.py
    # reads only each row's minimum
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)


def pytest_benchmark_generate_machine_info(config):
    # benchmarks/ab.py reads no machine info, and py-cpuinfo's probe takes ~1 s a run
    return {}
