"""One benchmark round, in a fresh interpreter.

Usage: python3 child.py SPEC_JSON REPORT_JSON

SPEC_JSON lists the experiments as (name, config text) pairs and whether to
trace.  The round imports weyllab.cli, parses every config, then calls
``cli.run`` for each experiment in order.  REPORT_JSON receives the monotonic
clock when the first experiment could be called and when the last returned,
the process's CPU time and peak resident set, each experiment's exit status,
and in a traced round the recorded spans and the cost of one span.
"""

import json
import resource
import sys
import time
import traceback


def main(spec_path: str, report_path: str) -> int:
    with open(spec_path, encoding="utf-8") as fh:
        spec = json.load(fh)
    from weyllab import cli

    configs = [(name, cli.parse_config(text, experiment=name))
               for name, text in spec["experiments"]]
    recorder = None
    if spec["trace"]:
        import spans

        recorder = spans.install()
    ready = time.monotonic()
    results = []
    for name, cfg in configs:
        try:
            results.append({"experiment": name, "exit": cli.run(cfg, name)})
        except Exception:
            results.append({"experiment": name, "exit": None,
                            "traceback": traceback.format_exc()})
    end = time.monotonic()
    usage = resource.getrusage(resource.RUSAGE_SELF)
    report = {
        "ready": ready,
        "end": end,
        "cpu_s": usage.ru_utime + usage.ru_stime,
        "maxrss_kb": usage.ru_maxrss,
        "results": results,
    }
    if recorder is not None:
        report["spans"] = recorder.spans
        report["span_cost_s"] = spans.span_cost()
    with open(report_path, "w", encoding="utf-8") as fh:
        json.dump(report, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1], sys.argv[2]))
