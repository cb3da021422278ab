"""The benchmark's workloads: generated inputs and the CLI invocations run on them.

Each workload is a closed-loop pipeline with a single client: its
invocations run one after another, each waiting for the previous one to
finish. `main` names the invocations the workload is built around and
`others` the rest; the end-to-end metrics `main_cmd_s` and
`other_cmds_s` are the summed times of those groups. Why each workload
exists is in README.md.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from typing import Callable

import gen


@dataclass(frozen=True)
class Invocation:
    """One `distillens` subcommand.

    In the template `{in}/` marks a generated input, `{out}/` a file this
    invocation writes and `{prev}/` a file an earlier invocation wrote;
    `{out}` and `{prev}` are the same directory.
    """

    name: str  # also names its end-to-end timing, `<name>_s`
    template: str

    def argv(self, in_dir: str, out_dir: str) -> list[str]:
        return [
            arg.replace("{in}", in_dir).replace("{out}", out_dir).replace("{prev}", out_dir)
            for arg in self.template.split()
        ]

    def outputs(self) -> list[str]:
        return [arg[len("{out}/"):] for arg in self.template.split() if arg.startswith("{out}/")]


@dataclass(frozen=True)
class Workload:
    name: str
    generate: Callable[[int, str], dict]
    invocations: tuple[Invocation, ...]
    main: tuple[str, ...]

    @property
    def others(self) -> tuple[str, ...]:
        return tuple(inv.name for inv in self.invocations if inv.name not in self.main)

    def outputs(self) -> list[str]:
        return [path for inv in self.invocations for path in inv.outputs()]


ALIGN_ITERS = 5

WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "align-zipf",
            gen.align_zipf,
            (
                Invocation(
                    "align",
                    f"align --src {{in}}/src.txt --tgt {{in}}/tgt.txt --iters {ALIGN_ITERS} "
                    "--out {out}/align.aln --table {out}/table.tsv",
                ),
                Invocation(
                    "metrics",
                    "metrics --src {in}/src.txt --tgt {in}/tgt.txt --align {prev}/align.aln "
                    "--real-src {in}/src.txt --real-tgt {in}/tgt.txt "
                    "--real-align {in}/gold.aln --out {out}/metrics.json",
                ),
                Invocation(
                    "preorder",
                    "preorder --src {in}/src.txt --tgt {in}/tgt.txt --align {prev}/align.aln "
                    "--out-src {out}/preorder.src --out-align {out}/preorder.aln",
                ),
            ),
            main=("align",),
        ),
        Workload(
            "select-kbest",
            gen.select_kbest,
            (
                Invocation(
                    "select_walign",
                    "select --kbest {in}/kbest.txt --ref {in}/ref.txt --src {in}/src.txt "
                    "--cxty walign --table {in}/table.tsv "
                    "--out {out}/select_walign.txt --scores {out}/scores.csv",
                ),
                Invocation(
                    "select_nmt",
                    "select --kbest {in}/kbest.txt --ref {in}/ref.txt --src {in}/src.txt "
                    "--cxty nmt --out {out}/select_nmt.txt",
                ),
            ),
            main=("select_walign",),
        ),
        Workload(
            "calib-long",
            gen.calib_long,
            (
                Invocation(
                    "calibrate",
                    "calibrate --preds {in}/preds.jsonl --hyp {in}/hyp.txt --ref {in}/ref.txt "
                    "--out {out}/calibrate.json",
                ),
                Invocation("attn", "attn --attn {in}/attn.jsonl --out {out}/attn.csv"),
            ),
            main=("calibrate",),
        ),
    )
}


def prepare_dirs(base: str) -> tuple[str, str]:
    """Create `<base>/in` and `<base>/out` and return them."""
    in_dir = os.path.join(base, "in")
    out_dir = os.path.join(base, "out")
    os.makedirs(in_dir, exist_ok=True)
    os.makedirs(out_dir, exist_ok=True)
    return in_dir, out_dir
