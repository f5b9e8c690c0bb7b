"""Run every CLI stage on two seeded mock datasets, for byte-identity checks.

    PYTHONPATH=src python scripts/mock_pipeline.py OUT [--store DIR]

For each preset (mmlu and gsm8k, 40 instances each, all six signals)
this writes a dataset and two mock backend configs under OUT/<preset>/
and runs generate -> signals -> eval -> route --budget 0.3 ->
route --budget 0.3 --abstain -> report there. Both route stages write
the same file names, so each stage's files move to OUT/<preset>/route/
or OUT/<preset>/abstain/. The generator is mock seed 3 peak 2.0; the
verifier is mock seed 8 peak 3.0 with a top-3 entropy echo and
" Yes"/" No" in its vocabulary, so P(True) resolves on some instances
only. Every backend result is cached in one store,
OUT/store unless --store names another.

The outputs are a pure function of the code: two runs, or a run that
reuses an earlier run's store, must agree under
`diff -r -x store OUT1 OUT2`; two runs in fresh directories must also
agree on `store/` apart from the run manifests in `store/runs/`.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

from crossmodel.cli import main as crossmodel
from crossmodel.signals import SIGNAL_FIELDS

N_INSTANCES = 40
VOCABS = {
    "mmlu": [" A", " B", " C", " D"],
    "gsm8k": [" so", " add", " 7", " 12", " 40", " ANSWER:"],
}


def write_inputs(run_dir: Path, preset: str) -> list[str]:
    """Dataset and backend configs for one preset; returns the run flags."""
    run_dir.mkdir(parents=True, exist_ok=True)
    dataset = run_dir / "dataset.jsonl"
    with dataset.open("w", encoding="utf-8") as fh:
        for i in range(N_INSTANCES):
            if preset == "mmlu":
                doc = {"task_type": "multiple_choice", "gold": "ABCD"[i % 4],
                       "prompt": f"Question {i}: pick the right letter."}
            else:
                doc = {"task_type": "numeric_cot", "gold": ("7", "12", "40")[i % 3],
                       "prompt": f"Problem {i}: how many in total? End with ANSWER:"}
            fh.write(json.dumps({"id": f"q{i:03d}", **doc}) + "\n")
    vocab = VOCABS[preset]
    generator = run_dir / "generator.json"
    generator.write_text(json.dumps(
        {"id": "gen-mock", "type": "mock", "seed": 3, "peak": 2.0, "vocab": vocab}
    ) + "\n", encoding="utf-8")
    verifier = run_dir / "verifier.json"
    verifier.write_text(json.dumps(
        {"id": "ver-mock", "type": "mock", "seed": 8, "peak": 3.0, "entropy": 3,
         "vocab": vocab + [" Yes", " No"]}
    ) + "\n", encoding="utf-8")
    return ["--dataset", str(dataset), "--preset", preset, "--generator", str(generator),
            "--verifier", str(verifier), "--signals", ",".join(SIGNAL_FIELDS),
            "--out", str(run_dir)]


def run(out: Path, store: Path) -> int:
    for preset in VOCABS:
        run_dir = out / preset
        flags = write_inputs(run_dir, preset) + ["--store", str(store)]
        stages = [["generate"], ["signals"], ["eval"], ["route", "--budget", "0.3"],
                  ["route", "--budget", "0.3", "--abstain"]]
        for stage in stages:
            code = crossmodel([stage[0], *flags, *stage[1:]])
            if code != 0:
                print(f"{preset}: {' '.join(stage)} exited {code}", file=sys.stderr)
                return code
            if stage[0] == "route":
                keep = run_dir / ("abstain" if "--abstain" in stage else "route")
                keep.mkdir(exist_ok=True)
                for path in run_dir.glob("route_*"):
                    path.replace(keep / path.name)
        code = crossmodel(["report", str(run_dir), "--out", str(run_dir / "report")])
        if code != 0:
            return code
    return 0


def parse_args(argv: list[str] | None = None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("out", type=Path, help="output directory")
    parser.add_argument("--store", type=Path, default=None,
                        help="cache store to use (default: OUT/store)")
    return parser.parse_args(argv)


if __name__ == "__main__":
    args = parse_args()
    sys.exit(run(args.out, args.store or args.out / "store"))
