"""The four benchmark workloads.

Each workload is one caller in a closed loop: the next operation starts when
the previous one returns. All inputs are generated in-process from the
workload seed; jsalearn receives only the generated arrays and models, and is
driven through its public entry points (models.build_architecture,
data.surrogate_images, jsa.train with its on_update hook,
evaluation.dataset_nll, jsa.save_checkpoint / load_checkpoint / restore_pair
and checks.run_oracle_suite).

A workload provides:
  prepare()   untimed preparation (the eval checkpoint is written here);
  setup()     the timed set-up, repeated to report a median;
  op(j)       one measured operation; returns an Op;
  verify()    output checks after the measured loop; a failed check fails
              every operation it covers.
"""

from __future__ import annotations

import hashlib
import math
import os
import subprocess
import sys
import traceback
from dataclasses import dataclass, field

import numpy as np

from jsalearn import checks, data, evaluation, jsa, models

from reference import linear_is_nll


@dataclass
class Op:
    """Outcome of one measured operation. latencies holds one (start, end)
    pair per unit the workload reports (per update for training, per block
    or battery otherwise); items is the work done in datapoints or checks."""

    latencies: list = field(default_factory=list)
    items: int = 0
    attempted: int = 0
    failed: int = 0


def _boundary(name):
    """Reports an exception raised by jsalearn inside an operation; the
    operation then counts as failed instead of ending the run."""
    print(f"{name}: operation raised:", file=sys.stderr)
    traceback.print_exc(file=sys.stderr)


class Train:
    """Two-stage jsa.train at paper settings (m=50, K=2) on the surrogate
    corpus. One repetition is a full training run that crosses the stage
    switch; the corpus is small enough that stage 2 revisits every datapoint,
    so from the second cache-stage epoch on every chain starts from the
    cache. Repetitions are identical, which is itself checked."""

    n_train = 1000
    n_valid = 100
    stage1_epochs = 3
    stage2_epochs = 2
    batch = 50
    particles = 2
    fresh_setup = True  # training mutates the model, so each rep rebuilds it

    def __init__(self, name, preset, seed, nll_ref, nll_tol):
        self.name = name
        self.preset = preset
        self.seed = seed
        self.nll_ref = nll_ref
        self.nll_tol = nll_tol
        self.tracer = None
        self.speed = None
        self.config = jsa.JsaConfig(
            particle_number=self.particles, minibatch_size=self.batch,
            total_epochs=self.stage1_epochs + self.stage2_epochs,
            stage1_epochs=self.stage1_epochs, seed=seed)
        self.updates_per_rep = (self.config.total_epochs
                                * math.ceil(self.n_train / self.batch))
        self.stage_time = {1: 0.0, 2: 0.0}
        self.stage_rows = {1: 0, 2: 0}
        self.accepted = {1: 0, 2: 0}
        self.proposed = {1: 0, 2: 0}
        self.valid_nll = None
        self.digests = []
        self.problems = []

    def prepare(self):
        pass

    def setup(self):
        self.train, self.valid = data.surrogate_images(
            self.n_train, self.n_valid, seed=self.seed)
        self.pair = models.build_architecture(self.preset, seed=self.seed)

    def op(self, j):
        out = Op(attempted=self.updates_per_rep)
        last = [0.0]
        rep_stats = []

        clock = self.speed.clock

        def on_update(epoch, k, pair, est):
            now = clock()
            stage = 1 if epoch <= self.stage1_epochs else 2
            ok = (np.isfinite(est.g_theta).all() and np.isfinite(est.g_phi).all()
                  and 0 <= est.accept_count <= est.proposal_count)
            rep_stats.append((stage, last[0], now, est.proposal_count
                              // self.particles, est.accept_count,
                              est.proposal_count, ok))
            last[0] = clock()

        def on_epoch(epoch, pair, result):
            last[0] = clock()

        if self.tracer is not None:
            on_update = self.tracer.hook(on_update)
            on_epoch = self.tracer.hook(on_epoch)
        last[0] = clock()
        try:
            jsa.train(self.pair, self.train, self.config, on_update=on_update,
                      on_epoch=on_epoch, timing=False)
        except Exception:
            _boundary(self.name)
            out.failed = out.attempted
            return out
        finally:
            if self.tracer is not None:
                self.tracer.op_id = -1

        for stage, start, end, rows, acc, prop, ok in rep_stats:
            out.latencies.append((start, end))
            out.items += rows
            out.failed += 0 if ok else 1
            if self.tracer is None:
                self.stage_time[stage] += end - start
                self.stage_rows[stage] += rows
                self.accepted[stage] += acc
                self.proposed[stage] += prop
        out.failed += out.attempted - len(rep_stats)

        lam = self.pair.lam
        if not np.isfinite(lam).all():
            self.problems.append(f"rep {j}: non-finite parameters")
            out.failed = out.attempted
        self.digests.append(hashlib.sha256(lam.tobytes()).hexdigest())
        return out

    def verify(self):
        """Returns the failed checks. Acceptance per stage must lie in (0, 1);
        the validation NLL must lie within the cross-seed tolerance of its
        reference; every repetition must reproduce the first bit for bit."""
        bad = list(self.problems)
        # Every repetition ends with the same parameters (checked below), so
        # the last one stands for all. Small blocks keep this evaluation
        # from setting the workload's peak memory.
        self.valid_nll = evaluation.dataset_nll(
            self.pair, self.valid.items, n_samples=100, block=10,
            rng=np.random.default_rng(self.seed + 977))
        for s in (1, 2):
            rate = self.accepted[s] / max(self.proposed[s], 1)
            if not 0.0 < rate < 1.0:
                bad.append(f"stage {s} acceptance rate {rate:.4f} not in (0, 1)")
        v = self.valid_nll
        if not abs(v - self.nll_ref) <= self.nll_tol:
            bad.append(f"valid_nll {v} outside {self.nll_ref} +- {self.nll_tol}")
        if len(set(self.digests)) > 1:
            bad.append("repetitions of the same seed ended with different "
                       "parameters")
        return bad

    def extras(self):
        """Per-stage figures from the untraced loop."""
        out = {}
        for s in (1, 2):
            out[f"jsa.stage{s}.rows_per_s"] = (
                self.stage_rows[s] / self.stage_time[s]
                if self.stage_time[s] else 0.0)
            out[f"jsa.stage{s}.accept_rate"] = (
                self.accepted[s] / self.proposed[s] if self.proposed[s] else 0.0)
            out[f"jsa.stage{s}.proposals"] = float(self.proposed[s])
        return out

    def quality(self):
        return {"valid_nll": self.valid_nll}


class EvalNll:
    """evaluation.dataset_nll at 100 importance samples per datapoint on a
    seeded `linear` checkpoint, one 100-point block (10 000 rows) per call,
    cycling through a 2 000-point evaluation split."""

    n_eval = 2000
    block = 100
    samples = 100
    n_paired = 200
    z_limit = 4.0
    fresh_setup = False

    def __init__(self, seed, workdir):
        self.name = "eval-nll"
        self.seed = seed
        self.tracer = None
        self.path = os.path.join(workdir, f"eval-{seed}.ckpt")
        self.nlls = []
        self.paired = None

    def prepare(self):
        pair = models.build_architecture("linear", seed=self.seed)
        jsa.save_checkpoint(self.path, pair)

    def setup(self):
        _, self.eval = data.surrogate_images(self.block, self.n_eval,
                                             seed=self.seed)
        self.payload = jsa.load_checkpoint(self.path)
        self.pair = jsa.restore_pair(self.payload)
        self.rng = np.random.default_rng(self.seed + 1)

    def op(self, j):
        out = Op(attempted=1, items=self.block)
        b = j % (self.n_eval // self.block)
        X = self.eval.items[b * self.block:(b + 1) * self.block]
        if self.tracer is not None:
            self.tracer.new_op()
        t = self.speed.clock()
        try:
            nll = evaluation.dataset_nll(self.pair, X, n_samples=self.samples,
                                         rng=self.rng)
        except Exception:
            _boundary(self.name)
            nll = float("nan")
        out.latencies.append((t, self.speed.clock()))
        if self.tracer is not None:
            self.tracer.op_id = -1
        if np.isfinite(nll):
            self.nlls.append(nll)
        else:
            out.failed = 1
        return out

    def verify(self):
        """Paired Monte-Carlo test on the first n_paired points: per-point
        NLLs from jsalearn and from the independent reference estimator in
        reference.py, each with its own random stream. Their mean difference
        must lie within z_limit standard errors (computed from the per-point
        differences) of zero."""
        X = self.eval.items[:self.n_paired]
        rng = np.random.default_rng(self.seed + 2)
        prog = np.array([evaluation.dataset_nll(self.pair, X[i:i + 1],
                                                n_samples=self.samples,
                                                rng=rng)
                         for i in range(len(X))])
        ref = linear_is_nll(self.payload["lam"], X, self.samples,
                            np.random.default_rng(self.seed + 3))
        os.remove(self.path)
        d = prog - ref
        se = d.std(ddof=1) / math.sqrt(d.size)
        z = d.mean() / se if se > 0 else float("inf")
        self.paired = {"mean_diff": float(d.mean()), "se": float(se),
                       "z": float(z)}
        if np.isfinite(z) and abs(z) <= self.z_limit:
            return []
        return [f"paired NLL difference {d.mean():.4f} nats is {z:.2f} "
                f"standard errors from zero (limit {self.z_limit})"]

    def extras(self):
        return {}

    def quality(self):
        return {"eval_nll": float(np.mean(self.nlls)) if self.nlls else None,
                "paired_check": self.paired}


class Oracle:
    """The full checks.run_oracle_suite at the workload seed, repeated: every
    battery of a run does the same work."""

    fresh_setup = False

    def __init__(self, seed):
        self.name = "oracle"
        self.seed = seed
        self.tracer = None
        self.failures = []

    def prepare(self):
        pass

    def setup(self):
        # The battery builds all its models itself; what a user waits for
        # before it starts is the package import, timed in a fresh process.
        subprocess.run([sys.executable, "-c", "import jsalearn.checks"],
                       check=True)

    def op(self, j):
        if self.tracer is not None:
            self.tracer.new_op()
        t = self.speed.clock()
        try:
            results = checks.run_oracle_suite(seed=self.seed)
        except Exception:
            _boundary(self.name)
            results = None
        span = (t, self.speed.clock())
        if self.tracer is not None:
            self.tracer.op_id = -1
        if results is None:  # count the battery's ten checks as failed
            return Op([span], 0, 10, 10)
        for r in results:
            msg = f"{r.name}: {r.detail}"
            if not r.passed and msg not in self.failures:
                self.failures.append(msg)
        return Op([span], len(results), len(results),
                  sum(not r.passed for r in results))

    def verify(self):
        return []

    def extras(self):
        return {}

    def quality(self):
        return {"failed_checks": self.failures}


# Validation NLL (nats) after one training repetition: the median over
# workload seeds 0-19 at the commit that introduced this benchmark, and a
# tolerance of four standard deviations of that spread (sd 8.5 and 9.2).
# The untrained linear model scores about 568, so a training step that
# stops learning falls far outside.
TRAIN_NLL = {"linear": (379.2, 34.0), "categorical-20x10": (366.1, 37.0)}


def make(name, seed, workdir):
    if name == "train-linear":
        return Train(name, "linear", seed, *TRAIN_NLL["linear"])
    if name == "train-categorical":
        return Train(name, "categorical-20x10", seed,
                     *TRAIN_NLL["categorical-20x10"])
    if name == "eval-nll":
        return EvalNll(seed, workdir)
    if name == "oracle":
        return Oracle(seed)
    raise KeyError(name)


NAMES = ("train-linear", "train-categorical", "eval-nll", "oracle")
