"""Command-line front end.

Subcommands: train (two-stage run with metrics and checkpoints), eval
(importance-sampled NLL of a checkpoint on a data split), variance
(gradient-noise report comparing the sampler-driven estimator against the
reweighted-wake-sleep one at a shared checkpoint), and oracle-suite (the
randomized small-model check battery).

Exit codes: 0 success, 1 oracle-suite failure, 2 invalid configuration or
missing inputs, 3 numeric abort during training (checkpoint retained).

Every training run writes a config snapshot (config.json), a metrics table
(metrics.csv with columns epoch,split,nll,accept_rate,seconds) and two
checkpoints (best.ckpt by validation NLL, last.ckpt). Runs are
deterministic for a fixed seed; the seconds column is all zeros unless
--timing is given, so that two identical runs produce byte-identical
metrics files.
"""

from __future__ import annotations

import argparse
import csv
import dataclasses
import json
import os
import sys
from dataclasses import dataclass

import numpy as np

from . import __version__, checks, data, evaluation, jsa
from .errors import ConfigError, FormatError, JsaError
from .models import PRESETS, build_architecture

TASKS = ("generative-bernoulli", "generative-categorical", "structured")


@dataclass
class RunConfig:
    """Everything one training run needs, as parsed from the command line."""

    task: str = "generative-bernoulli"
    arch: str = "linear"
    algo: str = "jsa"
    particles: int = 2
    batch: int = 50
    lr: float = 3e-4
    total_epochs: int = 100
    stage1_epochs: int = 60
    eval_every: int = 5
    seed: int = 0
    val_samples: int = 100
    test_samples: int = 1000
    data_root: str | None = None
    surrogate: bool = False
    binarize_mode: str = data.THRESHOLD
    limit_train: int | None = None
    limit_valid: int | None = None
    limit_test: int | None = None
    out_dir: str = "runs/out"
    timing: bool = False

    def training_config(self) -> jsa.JsaConfig:
        return jsa.JsaConfig(
            particle_number=self.particles, minibatch_size=self.batch,
            total_epochs=self.total_epochs,
            stage1_epochs=min(self.stage1_epochs, self.total_epochs),
            lr=self.lr, seed=self.seed, eval_every=self.eval_every,
            val_samples=self.val_samples)

    def validate(self):
        """Task/architecture compatibility, before any data or compute."""
        if self.task not in TASKS:
            raise ConfigError(f"unknown task '{self.task}'")
        if self.algo not in ("jsa", "rws"):
            raise ConfigError(f"unknown algorithm '{self.algo}'")
        if self.test_samples < 1:
            raise ConfigError("test_samples must be at least 1")
        pair = build_architecture(self.arch, seed=self.seed)
        kinds = {s.kind for s in pair.layer_specs}
        if self.task == "structured":
            if not pair.context_width:
                raise ConfigError(
                    "structured task needs a conditional architecture "
                    "(e.g. structured-50)")
        else:
            if pair.context_width:
                raise ConfigError(
                    f"task {self.task} takes an unconditional architecture")
            if self.task == "generative-categorical" and \
                    "categorical" not in kinds:
                raise ConfigError("generative-categorical needs a "
                                  "categorical latent layer")
            if self.task == "generative-bernoulli" and "categorical" in kinds:
                raise ConfigError("generative-bernoulli takes Bernoulli "
                                  "latent layers only")
        self.training_config()
        return pair


def resolve_splits(rc: RunConfig):
    """Returns (train, valid, test) Datasets for the run.

    With --surrogate (or for tests without the real files) the corpus is
    sampled from a fixed random generative model; otherwise the IDX files
    under --data-root / $JSA_DATA_ROOT are loaded.
    """
    root = rc.data_root or data.default_data_root()
    if rc.surrogate:
        n_train = rc.limit_train or 5000
        n_valid = rc.limit_valid or 1000
        n_test = rc.limit_test or 1000
        train, valid = data.surrogate_images(n_train + n_test, n_valid,
                                             seed=42)
        test = data.Dataset(train.items[n_train:], split="test")
        train = data.Dataset(train.items[:n_train], split="train")
    elif root:
        train, valid, test = data.mnist_splits(root, rc.binarize_mode)
        if rc.limit_train:
            train = train.subset(rc.limit_train)
        if rc.limit_valid:
            valid = valid.subset(rc.limit_valid)
        if rc.limit_test:
            test = test.subset(rc.limit_test)
    else:
        raise ConfigError(
            "no data root: set --data-root or JSA_DATA_ROOT, or pass "
            "--surrogate for the synthetic stand-in corpus")
    if rc.task == "structured":
        train, valid, test = (data.split_halves(s) for s in
                              (train, valid, test))
    return train, valid, test


def write_metrics(path, rows):
    with open(path, "w", newline="") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "split", "nll", "accept_rate", "seconds"])
        for epoch, split, nll, acc, seconds in rows:
            w.writerow([epoch, split, f"{nll:.6f}",
                        "" if acc == "" else f"{acc:.6f}", f"{seconds:.3f}"])


def write_config_snapshot(path, rc: RunConfig):
    snap = dataclasses.asdict(rc)
    snap["version"] = __version__
    with open(path, "w") as f:
        json.dump(snap, f, indent=2, sort_keys=True)
        f.write("\n")


def cmd_train(rc: RunConfig) -> int:
    pair = rc.validate()
    train, valid, test = resolve_splits(rc)
    cfg = rc.training_config()
    os.makedirs(rc.out_dir, exist_ok=True)
    write_config_snapshot(os.path.join(rc.out_dir, "config.json"), rc)
    extra = {"task": rc.task, "algorithm": rc.algo}

    def save(name, lam=None, epoch=0, adam=None, cache=None):
        saved = pair.copy_lam()
        if lam is not None:
            pair.set_lam(lam)
        jsa.save_checkpoint(os.path.join(rc.out_dir, name), pair, adam=adam,
                            cache=cache, epoch=epoch, extra=extra)
        pair.set_lam(saved)

    try:
        result = jsa.train(pair, train, cfg, valid=valid, algorithm=rc.algo,
                           timing=rc.timing)
    except jsa.TrainingDiverged as exc:
        result = exc.result
        write_metrics(os.path.join(rc.out_dir, "metrics.csv"), result.metrics)
        save("last.ckpt", epoch=result.epochs_run, adam=result.adam,
             cache=result.cache)
        print(f"training aborted: {exc}", file=sys.stderr)
        print(f"checkpoint retained in {rc.out_dir}/last.ckpt",
              file=sys.stderr)
        return 3

    write_metrics(os.path.join(rc.out_dir, "metrics.csv"), result.metrics)
    save("last.ckpt", epoch=result.epochs_run, adam=result.adam,
         cache=result.cache)
    save("best.ckpt", lam=result.best_lam, epoch=result.best_epoch or 0)

    pair.set_lam(result.best_lam)
    test_rng = np.random.default_rng(cfg.seed + 1399)
    test_nll = evaluation.dataset_nll(pair, test.items, test.contexts,
                                      n_samples=rc.test_samples, rng=test_rng)
    print(f"epochs run: {result.epochs_run}  "
          f"best validation epoch: {result.best_epoch}")
    print(f"test NLL ({rc.test_samples} samples, best checkpoint): "
          f"{test_nll:.4f}")
    return 0


def cmd_eval(args) -> int:
    if not os.path.exists(args.ckpt):
        print(f"checkpoint not found: {args.ckpt}", file=sys.stderr)
        return 2
    if args.limit is not None and args.limit < 1:
        raise ConfigError("--limit must be at least 1")
    payload = jsa.load_checkpoint(args.ckpt)
    pair = jsa.restore_pair(payload)
    task = args.task or payload.get("extra", {}).get("task",
                                                     "generative-bernoulli")
    rc = RunConfig(task=task, arch=payload["arch"], data_root=args.data_root,
                   surrogate=args.surrogate, limit_train=args.limit,
                   limit_valid=args.limit, limit_test=args.limit)
    splits = dict(zip(("train", "valid", "test"), resolve_splits(rc)))
    ds = splits[args.split]
    items = ds.items if args.limit is None else ds.items[:args.limit]
    ctx = ds.contexts
    if ctx is not None and args.limit is not None:
        ctx = ctx[:args.limit]
    rng = np.random.default_rng(args.seed)
    nll = evaluation.dataset_nll(pair, items, ctx,
                                 n_samples=args.n_samples, rng=rng)
    print(f"{args.split} NLL ({items.shape[0]} points, "
          f"{args.n_samples} samples): {nll:.4f}")
    return 0


def cmd_variance(args) -> int:
    if not os.path.exists(args.ckpt):
        print(f"checkpoint not found: {args.ckpt}", file=sys.stderr)
        return 2
    payload = jsa.load_checkpoint(args.ckpt)
    pair = jsa.restore_pair(payload)
    task = args.task or payload.get("extra", {}).get("task",
                                                     "generative-bernoulli")
    rc = RunConfig(task=task, arch=payload["arch"], data_root=args.data_root,
                   surrogate=args.surrogate)
    train, _, _ = resolve_splits(rc)
    if args.batch > len(train.items):
        raise ConfigError(f"--batch {args.batch} exceeds the "
                          f"{len(train.items)} rows of the training split")
    n = args.batch
    batch = (np.arange(n), train.items[:n].astype(pair.dtype),
             None if train.contexts is None
             else train.contexts[:n].astype(pair.dtype))
    cfg = jsa.JsaConfig(particle_number=args.particles,
                        minibatch_size=args.batch)

    def jsa_probe(b, rng):
        return jsa.jsa_minibatch_update(pair, jsa.LatentCache(), b, cfg, rng,
                                        use_cache=False, update_cache=False)

    def rws_probe(b, rng):
        return jsa.rws_minibatch_update(pair, b, args.particles, rng)

    rng = np.random.default_rng(args.seed)
    rep_jsa = evaluation.grad_variance(jsa_probe, batch, args.reps, rng)
    rep_rws = evaluation.grad_variance(rws_probe, batch, args.reps, rng)
    for name, rep in (("jsa", rep_jsa), ("rws", rep_rws)):
        print(f"{name}: log-variance theta {rep.log_sum_var_theta:+.4f}  "
              f"phi {rep.log_sum_var_phi:+.4f}  ({rep.reps} reps)")
    lower = "jsa" if rep_jsa.log_sum_var_phi < rep_rws.log_sum_var_phi \
        else "rws"
    print(f"lower phi-gradient variance: {lower}")
    return 0


def cmd_oracle_suite(args) -> int:
    results = checks.run_oracle_suite(seed=args.seed, quick=args.quick)
    failed = [r for r in results if not r.passed]
    for r in results:
        print(f"{'PASS' if r.passed else 'FAIL'}  {r.name}: {r.detail}")
    if failed:
        print(f"{len(failed)} of {len(results)} checks failed",
              file=sys.stderr)
        return 1
    print(f"all {len(results)} checks passed")
    return 0


def build_parser() -> argparse.ArgumentParser:
    p = argparse.ArgumentParser(
        prog="jsa",
        description="Train and evaluate discrete latent variable models "
                    "with Markov-chain driven stochastic approximation.")
    sub = p.add_subparsers(dest="command", required=True)

    t = sub.add_parser("train", help="run two-stage training")
    t.add_argument("--task", choices=TASKS, default="generative-bernoulli")
    t.add_argument("--arch", default="linear",
                   help=f"preset ({', '.join(PRESETS)}) or an "
                        "architecture string")
    t.add_argument("--algo", choices=("jsa", "rws"), default="jsa")
    t.add_argument("--particles", type=int, default=2)
    t.add_argument("--batch", type=int, default=50)
    t.add_argument("--lr", type=float, default=3e-4)
    t.add_argument("--total-epochs", type=int, default=100)
    t.add_argument("--stage1-epochs", type=int, default=60)
    t.add_argument("--eval-every", type=int, default=5)
    t.add_argument("--seed", type=int, default=0)
    t.add_argument("--val-samples", type=int, default=100)
    t.add_argument("--test-samples", type=int, default=1000)
    t.add_argument("--data-root", default=None,
                   help="directory with the IDX files "
                        "(default: $JSA_DATA_ROOT)")
    t.add_argument("--surrogate", action="store_true",
                   help="use the synthetic stand-in corpus instead of files")
    t.add_argument("--binarize", dest="binarize_mode",
                   choices=(data.THRESHOLD, data.FIXED_STANDARD),
                   default=data.THRESHOLD)
    t.add_argument("--limit-train", type=int, default=None)
    t.add_argument("--limit-valid", type=int, default=None)
    t.add_argument("--limit-test", type=int, default=None)
    t.add_argument("--out", dest="out_dir", default="runs/out")
    t.add_argument("--timing", action="store_true",
                   help="record wall-clock seconds in metrics.csv (makes "
                        "reruns non-identical)")

    e = sub.add_parser("eval", help="NLL of a checkpoint on a data split")
    e.add_argument("--ckpt", required=True)
    e.add_argument("--split", choices=("train", "valid", "test"),
                   default="test")
    e.add_argument("--n-samples", type=int, default=1000)
    e.add_argument("--limit", type=int, default=None)
    e.add_argument("--seed", type=int, default=0)
    e.add_argument("--task", choices=TASKS, default=None,
                   help="override the task recorded in the checkpoint")
    e.add_argument("--data-root", default=None)
    e.add_argument("--surrogate", action="store_true")

    v = sub.add_parser("variance",
                       help="gradient-noise report at a checkpoint")
    v.add_argument("--ckpt", required=True)
    v.add_argument("--reps", type=int, default=200)
    v.add_argument("--batch", type=int, default=20)
    v.add_argument("--particles", type=int, default=2)
    v.add_argument("--seed", type=int, default=0)
    v.add_argument("--task", choices=TASKS, default=None)
    v.add_argument("--data-root", default=None)
    v.add_argument("--surrogate", action="store_true")

    o = sub.add_parser("oracle-suite",
                       help="randomized small-model verification battery")
    o.add_argument("--seed", type=int, default=0)
    o.add_argument("--quick", action="store_true",
                   help="reduced instance counts and chain lengths")
    return p


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "train":
            fields = {f.name for f in dataclasses.fields(RunConfig)}
            rc = RunConfig(**{k: v for k, v in vars(args).items()
                              if k in fields})
            return cmd_train(rc)
        if args.command == "eval":
            return cmd_eval(args)
        if args.command == "variance":
            return cmd_variance(args)
        return cmd_oracle_suite(args)
    except (ConfigError, FormatError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except JsaError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
