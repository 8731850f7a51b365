def pytest_benchmark_update_machine_info(config, machine_info):
    # the host name says nothing about speed; keep the saved JSON free of it
    machine_info.pop("node", None)


def pytest_benchmark_update_json(config, benchmarks, output_json):
    # keep the summary statistics, not every round's time: a BENCH_*.json is
    # committed, and the raw rounds would make it megabytes
    for bench in output_json["benchmarks"]:
        bench["stats"].pop("data", None)
