"""Entry point of one `rsstest` command-line process in the cli-test workload.

Usage: cli_child.py SPANS_FILE|- rsstest-arguments...

With "-" it does what the installed `rsstest` script does: import
`rsstest.cli` and exit with `main`'s code.  Given a file, it first wraps
the layer functions (see tracing.py), and on exit writes the span
summary, the spans and the tie-regeneration count there.
"""

import json
import sys


def main() -> int:
    spans_path, argv = sys.argv[1], sys.argv[2:]
    if spans_path == "-":
        from rsstest.cli import main as cli_main

        return cli_main(argv)

    import tracing

    tracer = tracing.Tracer()
    tracing.install(tracer)
    import rsstest.cli
    import rsstest.models

    try:
        return rsstest.cli.main(argv)
    finally:
        with open(spans_path, "w") as fh:
            json.dump(
                {
                    "summary": tracing.summarize(tracer.spans),
                    "spans": tracer.spans,
                    "ties": rsstest.models.tie_regeneration_count,
                },
                fh,
            )


if __name__ == "__main__":
    sys.exit(main())
