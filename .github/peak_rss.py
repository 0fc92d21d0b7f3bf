"""Run a command with its stdout sent to a file and check its peak resident set size.

Usage: python3 .github/peak_rss.py CEILING_MB LABEL OUT -- ARGV...

Runs ARGV with stdout written to OUT, prints LABEL with the peak RSS of the
command (the children's ``ru_maxrss``) and the ceiling, and exits 1 when the
peak passes CEILING_MB.  A command that exits nonzero fails the run.
"""

import resource
import subprocess
import sys


def main(argv: list[str]) -> int:
    if len(argv) < 5 or argv[3] != "--":
        sys.exit("usage: python3 .github/peak_rss.py CEILING_MB LABEL OUT -- ARGV...")
    ceiling, label, out, command = int(argv[0]), argv[1], argv[2], argv[4:]
    with open(out, "w") as fh:
        subprocess.run(command, stdout=fh, check=True)
    peak = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024
    print(f"{label} peak RSS {peak:.0f} MB (ceiling {ceiling} MB)")
    return 0 if peak <= ceiling else 1


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
