"""Seeded inputs of the benchmark workloads.

The program under test sees only the files written here: dataset JSONL,
backend configs and, for the eval workload, answer and signal files laid
out as `crossmodel generate` and `crossmodel signals` would leave them.
The same seed always writes the same bytes.
"""

from __future__ import annotations

import json
import math
import random
from pathlib import Path

import server

GENERATOR = "gen-small"
HTTP_VERIFIERS = ("ver-mid", "ver-large")
EVAL_VERIFIERS = tuple(f"ver-{i}" for i in range(1, 9))
LOGPROBS_K = 5


def _write_jsonl(path: Path, docs) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", encoding="utf-8") as fh:
        for doc in docs:
            fh.write(json.dumps(doc, sort_keys=True) + "\n")


def _phrase(rng: random.Random, n: int) -> str:
    return "".join(rng.choice(server.WORDS) for _ in range(n)).strip()


def write_dataset(path: Path, preset: str, n: int, seed: int) -> None:
    """`n` instances whose prompts the loopback server can answer."""
    rng = random.Random(f"{preset}-{seed}")
    docs = []
    for i in range(n):
        if preset == "gsm8k":
            prompt = (f"Problem {i}: {_phrase(rng, 12)}, {rng.randint(2, 90)} and "
                      f"{rng.randint(2, 90)}; how many in total?{server.PROMPT_END}")
            task = "numeric_cot"
        else:
            options = " ".join(f"{c}) {_phrase(rng, 3)}" for c in "ABCD")
            prompt = f"Question {i}: {_phrase(rng, 10)}?\n{options}{server.PROMPT_END}"
            task = "multiple_choice"
        docs.append({"id": f"q{i:05d}", "task_type": task, "prompt": prompt,
                     "gold": server.true_answer(prompt)})
    _write_jsonl(path, docs)


def write_backend_config(path: Path, backend_id: str, port: int) -> None:
    path.parent.mkdir(parents=True, exist_ok=True)
    doc = {"id": backend_id, "type": "http", "logprobs_k": LOGPROBS_K,
           "base_url": f"http://127.0.0.1:{port}/{backend_id}/v1/completions"}
    path.write_text(json.dumps(doc, indent=2) + "\n", encoding="utf-8")


def _answer_doc(iid: str, letter: str, logprob: float) -> dict:
    return {"instance_id": iid, "answer": {
        "text": " " + letter, "finish_reason": "stop",
        "generator_token_scores": [{"token_text": " " + letter, "logprob": logprob,
                                    "entropy": -logprob / 2, "char_span": [0, 2]}],
    }}


def _quantized_nll(rng: random.Random, confident: bool) -> float:
    """-log p with p on a 13-point grid, so scores tie as single-token
    multiple-choice scores do; confident answers get the upper grid."""
    return -math.log(0.05 + 0.9 * rng.randint(4 if confident else 0, 12) / 12)


def write_eval_inputs(out_dir: Path, dataset: Path, n: int, seed: int) -> None:
    """One generator and eight verifiers over `n` multiple-choice
    instances: dataset, answer files and signal records.

    Verifier j is right more often and its signals separate the
    generator's right and wrong answers better as j grows, so the
    capability gap and AUROC vary across pairs as the report's rank
    correlation expects.
    """
    rng = random.Random(f"eval-{seed}")
    gold = ["ABCD"[rng.randrange(4)] for _ in range(n)]
    ids = [f"q{i:05d}" for i in range(n)]
    _write_jsonl(dataset, (
        {"id": iid, "task_type": "multiple_choice", "gold": g,
         "prompt": f"Question {i}: {_phrase(rng, 8)}?{server.PROMPT_END}"}
        for i, (iid, g) in enumerate(zip(ids, gold))
    ))

    def answer(g: str, accuracy: float) -> str:
        return g if rng.random() < accuracy else rng.choice([c for c in "ABCD" if c != g])

    gen_letters = [answer(g, 0.45) for g in gold]
    gen_nll = [_quantized_nll(rng, letter == g) for letter, g in zip(gen_letters, gold)]
    _write_jsonl(out_dir / f"answers_{GENERATOR}.jsonl",
                 (_answer_doc(iid, a, -nll) for iid, a, nll in zip(ids, gen_letters, gen_nll)))
    for j, ver in enumerate(EVAL_VERIFIERS, start=1):
        ver_letters = [answer(g, 0.45 + 0.05 * j) for g in gold]
        _write_jsonl(out_dir / f"answers_{ver}.jsonl",
                     (_answer_doc(iid, a, -0.3) for iid, a in zip(ids, ver_letters)))
        records = []
        for iid, g, a, va, g_nll in zip(ids, gold, gen_letters, ver_letters, gen_nll):
            # The verifier finds a wrong generator answer unlikely with
            # probability growing in j; otherwise its score is uninformed.
            informed = rng.random() < 0.1 * j
            log_cmp = _quantized_nll(rng, a == g if informed else rng.random() < 0.5)
            records.append({
                "instance_id": iid, "log_cmp": log_cmp, "cme": log_cmp / 2 + 0.1,
                "log_gppl": g_nll, "g_ent": g_nll / 2, "log_cmp_final": None,
                "p_true": None, "generator_correct": a == g, "verifier_correct": va == g,
            })
        _write_jsonl(out_dir / f"signals_{GENERATOR}__{ver}.jsonl", records)
