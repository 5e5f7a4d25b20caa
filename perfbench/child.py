"""One `modlab verify` run in this process, with spans recorded from outside.

    python3 perfbench/child.py --src SRC --spans OUT.npz --mode MODE -- VERIFY_ARGS...

MODE is one of

- ``plain``: spans only around ``generate_fixture`` and ``run_suites``, which
  give the set-up end and one timestamp per trial at negligible cost;
- ``trace``: spans around every public function and method of modlab.

The spans file also records the end of ``modlab.cli.main`` (before the spans
are written) and, when tracing, the quadrature nodes computed. The exit code
is the one ``modlab verify`` returns.
"""

from __future__ import annotations

import argparse
import inspect
import sys
import time

from spans import Tracer

PLAIN_SPANS = ("fixtures.generate_fixture", "suites.run_suites")


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--src", required=True, help="directory that holds the modlab package")
    parser.add_argument("--spans", required=True, help="output .npz for the recorded spans")
    parser.add_argument("--mode", choices=("plain", "trace"), required=True)
    parser.add_argument("verify_args", nargs=argparse.REMAINDER)
    ns = parser.parse_args(argv)
    verify_args = ns.verify_args[1:] if ns.verify_args[:1] == ["--"] else ns.verify_args

    sys.path.insert(0, ns.src)
    import modlab
    import modlab.cli

    tracer = Tracer()
    if ns.mode == "trace":
        sig = inspect.signature(modlab.contour.contour_quadrature_fixed)

        def count_nodes(args, kwargs):
            bound = sig.bind(*args, **kwargs).arguments
            tracer.counters["contour.quadrature_nodes"] += 2 * bound["n_line"] + bound["n_circ"]
        tracer.install(modlab, on_call={"contour.contour_quadrature_fixed": count_nodes})
    else:
        tracer.install(modlab, select=PLAIN_SPANS.__contains__)

    code = modlab.cli.main(["verify", *verify_args])
    main_end_ns = time.monotonic_ns()
    tracer.uninstall()
    tracer.dump(ns.spans, exit_code=code, main_end_ns=main_end_ns)
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
