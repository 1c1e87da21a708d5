"""Run the superlie CLI under cProfile, keeping its exit code.

    python3 bench/profile_child.py OUT.prof SUBCOMMAND [ARGS...]

This does what ``python -m cProfile -o OUT.prof -m superlie.cli ...`` does,
the import of the package included, with two differences: ``-m cProfile``
swallows the command's SystemExit and always exits 0, while here the exit
code is passed on, so a traced run checks the same exit codes as a plain
one; and C builtins are not profiled, as in the benchmark's own process.
"""

import cProfile
import runpy
import sys


def main() -> None:
    out, args = sys.argv[1], sys.argv[2:]
    sys.argv = ["superlie", *args]
    profile = cProfile.Profile(builtins=False)
    code = 0
    profile.enable()
    try:
        runpy.run_module("superlie.cli", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        code = exc.code
    finally:
        profile.disable()
        profile.dump_stats(out)
    sys.exit(code)


if __name__ == "__main__":
    main()
