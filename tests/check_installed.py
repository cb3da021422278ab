"""Check an installed distillens against the digests tests/bundled_runs.py pins.

CI runs it as ``python "$GITHUB_WORKSPACE/tests/check_installed.py"`` from
a directory outside the checkout, after the installed ``distillens attn``
has written ``attn.csv`` there from the bundled ``demo.attn.jsonl``. This
file's directory comes first on sys.path, so ``bundled_runs`` is read from
the checkout and ``distillens`` from the install. It fails unless
distillens is imported from outside GITHUB_WORKSPACE, and attn.csv and
every bundled-data run, written under ./bundled-runs, hold their pinned
bytes. It prints whether the digests matched, and how many there are.
"""

import os
from pathlib import Path

import distillens
from bundled_runs import DIGESTS, digest, run_all


def main():
    installed = Path(distillens.__file__).resolve()
    assert not installed.is_relative_to(Path(os.environ["GITHUB_WORKSPACE"]).resolve()), installed
    assert digest(Path("attn.csv").read_bytes()) == DIGESTS["attn.csv"]
    digests = run_all("bundled-runs")
    print(digests == DIGESTS, len(digests))
    assert digests == DIGESTS


if __name__ == "__main__":
    main()
