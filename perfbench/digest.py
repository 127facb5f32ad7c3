"""Hash every file the uswsim command line writes for a seed set.

    python3 perfbench/digest.py                       # this checkout
    python3 perfbench/digest.py --root ../parent      # another checkout
    python3 perfbench/digest.py --seeds 4,5,6 > digest.txt

For each seed it runs ``uswsim run`` under the three policies at the
reference configuration (with snapshots and the edge list), a small feast
``uswsim sweep``, and one small ``uswsim compare``, each as its own process
with the checkout's ``src`` on the path.  It prints one ``sha256  file``
line per output file and a last line hashing the whole listing.  Running it
on a change and on its parent and comparing the two listings shows whether
the outputs stayed byte-identical.  It is not a gate of the benchmark: a
change that corrects the method is expected to change some files.
"""

from __future__ import annotations

import argparse
import hashlib
import os
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

OWN_ROOT = Path(__file__).resolve().parent.parent
POLICIES = ("least", "moderate", "most")


def commands(seeds: list[int]) -> list[list[str]]:
    cmds = []
    for seed in seeds:
        for policy in POLICIES:
            cmds.append(["run", "--policy", policy, "--seed", str(seed),
                         "--snapshots", "1500,3500", "--edge-list"])
        cmds.append(["sweep", "--sizes", "10,50,100,250", "--seed", str(seed)])
    cmds.append(["compare", "--n-max", "100", "--seeds", "2"])
    return cmds


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/digest.py",
                                     description="hash uswsim's output files for a seed set")
    parser.add_argument("--root", default=str(OWN_ROOT),
                        help="checkout whose src/uswsim runs (default: this one)")
    parser.add_argument("--seeds", default="1,2,3", help="comma-separated seeds (default: 1,2,3)")
    args = parser.parse_args(argv)
    src = Path(args.root).resolve() / "src"
    if not (src / "uswsim" / "__init__.py").is_file():
        print(f"digest: no uswsim sources under {src}", file=sys.stderr)
        return 1
    seeds = [int(s) for s in args.seeds.split(",") if s.strip()]
    env = dict(os.environ, PYTHONPATH=str(src))
    scratch = OWN_ROOT / ".perfbench_out"
    scratch.mkdir(exist_ok=True)
    out = tempfile.mkdtemp(prefix="digest-", dir=scratch)
    try:
        for cmd in commands(seeds):
            proc = subprocess.run([sys.executable, "-m", "uswsim.cli", *cmd, "--out-dir", out],
                                  cwd=out, env=env, capture_output=True, text=True, timeout=600)
            if proc.returncode != 0:
                print(f"digest: uswsim {' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}",
                      file=sys.stderr)
                return 1
        listing = []
        for path in sorted(Path(out).iterdir()):
            listing.append(f"{hashlib.sha256(path.read_bytes()).hexdigest()}  {path.name}")
    finally:
        shutil.rmtree(out, ignore_errors=True)
    text = "\n".join(listing) + "\n"
    print(text, end="")
    print(f"{hashlib.sha256(text.encode()).hexdigest()}  total of {len(listing)} files")
    return 0


if __name__ == "__main__":
    sys.exit(main())
