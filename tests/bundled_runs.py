"""Every subcommand run on the bundled data, and the sha256 of what each
run writes.

The paper's numbers are read off these outputs: ``report``'s FRS, lexical
diversity and faithfulness, and ``calibrate``'s accuracy and ECE. A
speed-up must not move a byte, on any supported Python. A change that
means to move bytes moves their digests here and says why.
"""

import hashlib
import os
from pathlib import Path

from distillens import bundled_data_dir

from cli_judge import judged_run

DATA = str(bundled_data_dir())

# in the order they run (the frs and walign selections read the table
# align writes); {D} is the data directory and {O} the output directory
RUNS = {
    "align": "align --src {D}/real.src --tgt {D}/real.tgt --out {O}/real.aln --table {O}/table.tsv",
    "metrics": "metrics --src {D}/distilled.src --tgt {D}/distilled.tgt --align {D}/distilled.aln "
               "--real-src {D}/real.src --real-tgt {D}/real.tgt --real-align {D}/real.aln "
               "--out {O}/metrics.json --csv {O}/metrics.csv",
    "select nmt": "select --kbest {D}/demo.kbest --ref {D}/demo.ref --src {D}/real.src "
                  "--cxty nmt --out {O}/nmt.out --scores {O}/nmt.csv",
    "select frs": "select --kbest {D}/demo.kbest --ref {D}/demo.ref --src {D}/real.src "
                  "--cxty frs --table {O}/table.tsv --out {O}/frs.out --scores {O}/frs.csv",
    "select walign": "select --kbest {D}/demo.kbest --ref {D}/demo.ref --src {D}/real.src "
                     "--cxty walign --table {O}/table.tsv "
                     "--out {O}/walign.out --scores {O}/walign.csv",
    "preorder": "preorder --src {D}/real.src --tgt {D}/real.tgt --align {D}/real.aln "
                "--out-src {O}/preorder.src --out-align {O}/preorder.aln",
    "calibrate": "calibrate --preds {D}/demo.preds.jsonl --hyp {D}/demo.hyp --ref {D}/demo.ref "
                 "--out {O}/calibrate.json",
    "attn": "attn --attn {D}/demo.attn.jsonl --out {O}/attn.csv",
    "report": "report --real-src {D}/real.src --real-tgt {D}/real.tgt --real-align {D}/real.aln "
              "--distilled-src {D}/distilled.src --distilled-tgt {D}/distilled.tgt "
              "--distilled-align {D}/distilled.aln --out {O}/report.json --csv {O}/report.csv",
    "report em": "report --real-src {D}/real.src --real-tgt {D}/real.tgt "
                 "--distilled-src {D}/distilled.src --distilled-tgt {D}/distilled.tgt "
                 "--iters 5 --out {O}/report-em.json --csv {O}/report-em.csv",
}

# sha256 of each output file, with the data directory written as {D} (the
# first cell of metrics.csv is the --src path), and of the stderr of each
# run that prints any. report em writes what report writes, because EM
# reproduces the bundled alignments byte for byte.
DIGESTS = {
    "real.aln": "9c13f58970fd6212e51e1aef3fbfeeb51a7ce77a17518ccb7774f2cdb804f35b",
    "table.tsv": "be1f305b07d60be34b90e8fae685dd6f92cddec12eb5ff6579950cf6bd523ef0",
    "align stderr": "4d88651b77e1bfbb48bec8e19b120345b05cc2415fa2a5e77aef98825c2e6fc9",
    "metrics.json": "49fd66efa948951e93f1ff00ab4767ac42b2cb823047c5346ab6abd3da489c3c",
    "metrics.csv": "93d05b0fe93d00dc874f8521a7921981dd3b01e6ff55397db4b1b17ac204395f",
    "nmt.out": "55c63858e688a60e0f1624495bcd20a46ba810e95a2d196788cbb331ed8da0b8",
    "nmt.csv": "8e1a8e476f19f4ba9cbafa68ee244d3bd9173879f354dfedf4d6f14111feeff3",
    "frs.out": "55c63858e688a60e0f1624495bcd20a46ba810e95a2d196788cbb331ed8da0b8",
    "frs.csv": "2cff4b8f586b6fffd1d54653fe475199c90640bf3d15128388ca8a2f4f86722b",
    "walign.out": "733e9e3d490a40879a897c2e7dac3a874d0aafd5c4ae913135d480035ae8d619",
    "walign.csv": "29aae72bdb8fdbcf76e935ff6ade3291e0c70401ab6262b13361384e69392aa4",
    "preorder.src": "b130240f183f82dde5ee4905d126374c5b04843fff28cc3eac6e289b15b9deef",
    "preorder.aln": "e8d33f9f50aac34442a9952d0e78af4fcb3cf2f02ca9a8d416a4c71e411395de",
    "calibrate.json": "fe350268d94afab620031656e1a0324e0ff4962f45f25d0e85604714f3a7dc83",
    # accuracy 82.22% confidence 65.80% ece 18.28%
    "calibrate stderr": "6d6c2515210f0907f426ca51be2305e2b49387e56ab96fd3e2d9903dffbf93b1",
    "attn.csv": "4e6c94508de84fd8b84f7a49dae3a4249a35a9ab93dcf7e61bf40ddf47a9e36f",
    "report.json": "997be7ef7d72861b901b4fcee6149a0c2a68ec0087b18a294c05a6becac7d160",
    "report.csv": "98e06c936d609ececdacb19c93e80b1a417f86d41af438ea4f7d93a110182a5d",
    "report-em.json": "997be7ef7d72861b901b4fcee6149a0c2a68ec0087b18a294c05a6becac7d160",
    "report-em.csv": "98e06c936d609ececdacb19c93e80b1a417f86d41af438ea4f7d93a110182a5d",
    "report em stderr": "e92d1800370242f6375204966de4c867b21b4a7bbfa9f206d348611a58632453",
}


def argv(name, out, *extra):
    """RUNS[name] writing into the directory ``out``, with ``extra`` appended."""
    return [word.format(D=DATA, O=out) for word in RUNS[name].split()] + list(extra)


def digest(data):
    """sha256 of ``data`` with the data directory written as {D}."""
    return hashlib.sha256(data.replace(os.fsencode(DATA), b"{D}")).hexdigest()


def run_all(out, *extra):
    """Run every entry of RUNS, each with ``extra`` appended, into the new
    directory ``out``, and return the digests keyed as DIGESTS is."""
    Path(out).mkdir()
    digests = {}
    for name in RUNS:
        code, err = judged_run(argv(name, out, *extra), out)
        if code != 0:
            raise AssertionError(f"{name} exited {code}: {err}")
        if err:
            digests[f"{name} stderr"] = digest(err.encode())
    for path in Path(out).iterdir():
        digests[path.name] = digest(path.read_bytes())
    return digests
