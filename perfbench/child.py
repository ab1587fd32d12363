"""One CLI-equivalent spinchain invocation, timed from inside the process.

Started by run.py from the root of a checkout; imports spinchain from
./src.  It calls spinchain.cli.main exactly as the command line would and
marks, on the system-wide monotonic clock, when the config has been
loaded and validated and when main returns, so the parent can split the
invocation into set-up and run.  With --trace it first installs the span
recorder of spans.py.  The marks (wall and CPU), the peak RSS and any
spans go to the --result JSON file; the exit code is main's.

    python3 perfbench/child.py --command tmi-vs-entropy --config CFG \
        --result OUT.json [--trace]
"""

import argparse
import json
import os
import resource
import sys
import time


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--command", required=True)
    parser.add_argument("--config", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    args = parser.parse_args(argv)

    sys.path.insert(0, os.path.abspath("src"))
    import spinchain
    import spinchain.cli as cli
    # main imports runs lazily; import it here so that set-up covers it
    # and the tracer finds the names runs binds
    import spinchain.runs  # noqa: F401

    tracer = None
    if args.trace:
        import spans
        tracer = spans.Tracer()
        tracer.install()

    marks = {}
    load_config = cli.load_config

    def timed_load_config(*a, **kw):
        marks["load_start"] = time.monotonic()
        cfg = load_config(*a, **kw)
        marks["config_loaded"] = time.monotonic()
        marks["config_loaded_cpu"] = time.process_time()
        if tracer is not None:
            tracer.open_root(marks["config_loaded"])
        return cfg

    cli.load_config = timed_load_config
    code = cli.main([args.command, "--config", args.config])
    marks["end"] = time.monotonic()
    marks["end_cpu"] = time.process_time()

    result = {
        "marks": marks,
        "maxrss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "module": os.path.dirname(spinchain.__file__),
    }
    if tracer is not None:
        tracer.close_root(marks["end"])
        result["spans"] = tracer.spans
        result["missing"] = tracer.missing
        result["wrapper_cost_s"] = tracer.wrapper_cost()
    with open(args.result, "w") as fh:
        json.dump(result, fh)
    return code


if __name__ == "__main__":
    sys.exit(main())
