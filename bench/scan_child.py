"""One benchmark operation in a fresh interpreter.

    python3 bench/scan_child.py setup CONFIG
    python3 bench/scan_child.py scan CONFIG [--trace-dir DIR]
    python3 bench/scan_child.py validate [--trace-dir DIR]

Prints "ready" once thermofid.cli is imported and CONFIG is resolved (the
end of set-up), then, except for `setup`, runs the operation and prints one
JSON line: its wall time, the peak resident set of this process and its
pool workers, and the operation's report. With --trace-dir the package is
wrapped by tracer.Tracer after "ready", and spans are written to DIR.
"""

import argparse
import json
import resource
import sys
import time


def peak_rss_kib():
    return max(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
               resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)


def main(argv=None):
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "scan", "validate"))
    parser.add_argument("config", nargs="?")
    parser.add_argument("--trace-dir")
    args = parser.parse_args(argv)

    from thermofid import cli

    if args.mode != "validate":
        cli.resolve_scan_config(cli.load_config(args.config))
    print("ready", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace_dir:
        from tracer import Tracer  # this script's directory leads sys.path

        tracer = Tracer(args.trace_dir).install()
    started = time.perf_counter()
    if args.mode == "scan":
        report = cli.cmd_scan(args.config)
        report = {k: v for k, v in report.items() if k != "outputs"}
    else:
        report = cli.cmd_validate()
    elapsed = time.perf_counter() - started
    if tracer is not None:
        tracer.dump()
    print(json.dumps({"elapsed_s": elapsed, "peak_rss_kib": peak_rss_kib(), "report": report}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
