"""Run one carlitz CLI command, timed or traced, in a fresh interpreter.

    python3 perfbench/launch.py --samples OUT carlitz-args...
    python3 perfbench/launch.py --trace OUT carlitz-args...

Calls ``carlitz.cli.main`` exactly as ``python3 -m carlitz`` would, so stdout
is the command's own output and the exit code is the command's; without
carlitz-args it only imports ``carlitz.cli``, which times start-up.  With
``--samples`` the machine-speed sampler of ``calib.py`` runs while the command
does, and its samples are written to OUT at exit; with ``--trace`` the
outside-in tracer is installed and the trace is written to OUT at exit.
"""

import sys


def main() -> int:
    mode, out, argv = sys.argv[1], sys.argv[2], sys.argv[3:]
    if mode == "--samples":
        from calib import Sampler
        recorder = Sampler()
        recorder.start()
    elif mode == "--trace":
        from tracer import Tracer
        recorder = Tracer()
        recorder.install()
    else:
        sys.stderr.write(__doc__)
        return 2
    import carlitz.cli
    try:
        return carlitz.cli.main(argv) if argv else 0
    finally:
        sys.stdout.flush()
        if mode == "--samples":
            recorder.stop()
        recorder.dump(out)


if __name__ == "__main__":
    sys.exit(main())
