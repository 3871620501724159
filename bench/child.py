"""Fresh-interpreter helper of the benchmark (run with PYTHONPATH=src).

    python bench/child.py setup ARGV...   import ringheat.cli and resolve the
                                          run configuration ARGV gives; exit
    python bench/child.py run ARGV...     run `ringheat ARGV` once, then print
                                          its exit code, its output and this
                                          process's peak resident set as JSON
"""

import contextlib
import io
import json
import resource
import sys


def main() -> int:
    mode, argv = sys.argv[1], sys.argv[2:]
    import ringheat.cli as cli

    if mode == "setup":
        cli.resolve_config(cli.build_parser().parse_args(argv))
        return 0
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    # ru_maxrss is in KiB on Linux
    maxrss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    print(json.dumps({"rc": rc, "stdout": out.getvalue(), "stderr": err.getvalue(),
                      "maxrss_kb": maxrss_kb}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
