"""Prints the digests that show whether a change moved training, the oracle
battery or the command line's output.

Run from the repository root:

    python3 scripts/digests.py

It prints, as 16-hex-digit sha256 prefixes:

* for the `linear` and `categorical-20x10` presets, each built with a
  float64 and with a float32 lam, the benchmark training protocol (1 000
  surrogate training rows and 100 validation rows, seed 0, m=50, K=2, 3
  warm-up plus 2 cache-stage epochs, validation at epoch 5): the final
  parameter vector lam, the metrics rows, the final chain cache, and the
  validation NLL in full, and on a second line the final Adam state
  (moments m and v, and the step count);
* the bytes of the surrogate corpus, data.surrogate_images(1000, 100,
  seed=0) and (100, 2000, seed=0), which moves if any Bernoulli draw of
  the teacher model flips;
* the initial parameter vector lam of every preset at seed 0, in float64
  and in float32;
* the verdicts and details of checks.run_oracle_suite at seeds 0 and 1;
* the sampler: jsa.mis_moves's (pos, accepted) on fixed float32
  log-weights at m=50, K=2 and on fixed float64 ones at m=1, K=65 536,
  and jsa.run_mis_chain's occupancy counts for the first certified model
  of the mis-invariance check at seed 0 (1 000 000 steps), and for a
  100 000-step chain on it started at its last support state;
* metrics.csv of `jsa train --surrogate --arch linear --limit-train 300
  --limit-valid 100 --limit-test 100 --test-samples 50 --total-epochs 4
  --stage1-epochs 2 --eval-every 2`.

A change that claims to leave the random stream and the arithmetic alone
must print the same lines as its parent commit.

The script pins the BLAS libraries to one thread, as perfbench/run.py
does: with more threads a matmul may sum in another order, and the lam
and Adam digests then differ from run to run and machine to machine.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import os
import sys
import tempfile

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS"):
    os.environ[_var] = "1"  # before numpy is first imported

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

import numpy as np  # noqa: E402

from jsalearn import checks, cli, data, evaluation, jsa, models  # noqa: E402

DTYPES = (np.float64, np.float32)

CLI_ARGS = ["train", "--surrogate", "--arch", "linear", "--limit-train", "300",
            "--limit-valid", "100", "--limit-test", "100", "--test-samples",
            "50", "--total-epochs", "4", "--stage1-epochs", "2",
            "--eval-every", "2"]


def digest(*parts) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(p if isinstance(p, bytes) else p.tobytes())
    return h.hexdigest()[:16]


def training_protocol(preset, dtype):
    train, valid = data.surrogate_images(1000, 100, seed=0)
    pair = models.build_architecture(preset, seed=0, dtype=dtype)
    config = jsa.JsaConfig(particle_number=2, minibatch_size=50,
                           total_epochs=5, stage1_epochs=3, seed=0)
    result = jsa.train(pair, train, config, valid=valid, timing=False)
    valid_nll = [nll for _, split, nll, _, _ in result.metrics
                 if split == "valid"][-1]
    return {"lam": digest(pair.lam),
            "metrics": digest(repr(result.metrics).encode()),
            "cache": digest(*result.cache.layers, result.cache.seen),
            "valid_nll": repr(valid_nll),
            "adam": digest(result.adam.m, result.adam.v,
                           repr(result.adam.step).encode()),
            "adam_step": result.adam.step}


def surrogate_corpus():
    splits = (data.surrogate_images(1000, 100, seed=0)
              + data.surrogate_images(100, 2000, seed=0))
    return digest(*(d.items for d in splits))


def initial_lams(dtype):
    return digest(*(models.build_architecture(name, seed=0, dtype=dtype).lam
                    for name in models.PRESETS))


def oracle(seed):
    verdicts = [(r.name, r.passed, r.detail)
                for r in checks.run_oracle_suite(seed=seed)]
    return digest(repr(verdicts).encode()), all(v[1] for v in verdicts)


def sampler():
    gen = np.random.default_rng(20)
    moves = []
    for m, K, dtype in ((50, 2, np.float32), (1, 65_536, np.float64)):
        logw_cur = gen.normal(size=m).astype(dtype)
        logw_prop = gen.normal(size=(m, K)).astype(dtype)
        pos, accepted = jsa.mis_moves(logw_cur, logw_prop,
                                      np.random.default_rng(3))
        moves.append(digest(pos, repr(accepted).encode()))
    rng = np.random.default_rng(0)  # as checks.check_mis_invariance(seed=0)
    pair, x, c = checks.well_conditioned_pair(rng)
    support = evaluation.enumerate_support(pair.gen)
    counts = jsa.run_mis_chain(pair, x, 1_000_000, rng, c=c, support=support)
    started = jsa.run_mis_chain(pair, x, 100_000, np.random.default_rng(1),
                                c=c, support=support, start=support.size - 1)
    return moves, digest(counts), digest(started)


def cli_metrics():
    with tempfile.TemporaryDirectory() as out:
        with contextlib.redirect_stdout(io.StringIO()):
            code = cli.main(CLI_ARGS + ["--out", out])
        with open(os.path.join(out, "metrics.csv"), "rb") as f:
            return code, digest(f.read())


def main():
    for dtype in DTYPES:
        name = np.dtype(dtype).name
        for preset in ("linear", "categorical-20x10"):
            d = training_protocol(preset, dtype)
            print(f"{preset} {name}: lam {d['lam']}  metrics {d['metrics']}  "
                  f"cache {d['cache']}  valid NLL {d['valid_nll']}")
            print(f"{preset} {name}: adam {d['adam']}  step {d['adam_step']}")
    print(f"surrogate corpus {surrogate_corpus()}")
    for dtype in DTYPES:
        print(f"initial lam of {', '.join(models.PRESETS)} "
              f"{np.dtype(dtype).name}: {initial_lams(dtype)}")
    for seed in (0, 1):
        d, ok = oracle(seed)
        print(f"oracle seed {seed}: verdicts {d}  "
              f"{'all pass' if ok else 'SOME FAIL'}")
    moves, counts, started = sampler()
    print(f"sampler: mis_moves 50x2 float32 {moves[0]}  1x65536 {moves[1]}  "
          f"chain counts {counts}  started chain {started}")
    code, d = cli_metrics()
    print(f"jsa {' '.join(CLI_ARGS)}: exit {code}  metrics.csv {d}")


if __name__ == "__main__":
    main()
