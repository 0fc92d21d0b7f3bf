"""Run a command with its stdout sent to a file and check its exit code and peak resident set size.

Usage: python3 .github/peak_rss.py [--expect-exit CODE] CEILING_MB LABEL OUT -- ARGV...

Runs ARGV with stdout written to OUT, prints LABEL with the exit code and
the peak RSS of the command (the children's ``ru_maxrss``) and the ceiling,
and exits 1 when the command exits other than CODE (default 0) or the peak
passes CEILING_MB.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    expected = 0
    if argv[:1] == ["--expect-exit"] and len(argv) > 1 and argv[1].isdigit():
        expected, argv = int(argv[1]), argv[2:]
    if len(argv) < 5 or argv[3] != "--":
        sys.exit("usage: python3 .github/peak_rss.py [--expect-exit CODE] CEILING_MB LABEL OUT -- ARGV...")
    ceiling, label, out, command = int(argv[0]), argv[1], argv[2], argv[4:]
    with open(out, "w") as fh:
        status = subprocess.run(command, stdout=fh).returncode
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label} exit {status} (expected {expected}), peak RSS {peak:.0f} MB (ceiling {ceiling} MB)")
    return 0 if status == expected and peak <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
