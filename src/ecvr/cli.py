"""Command-line entry points: run experiments, verify properties, solve references."""

from __future__ import annotations

import argparse
import math
import os
import sys
from dataclasses import fields, replace

import numpy as np

from . import compressors as comp
from . import harness
from .problem import COMPOSITE, SMOOTH
from .rng import split_rng


def _add_data_args(parser: argparse.ArgumentParser) -> None:
    source = parser.add_mutually_exclusive_group()
    source.add_argument("--data", help="LIBSVM file to load")
    source.add_argument(
        "--synth",
        type=_synth,
        help="synthetic data as N,d,sparsity (default 200,50,0.3 when --data absent)",
    )
    parser.add_argument("--synth-scale", type=_positive, help="column norm of synthetic examples")
    parser.add_argument("--n", type=_positive_int, help="number of simulated nodes")
    parser.add_argument("--normalize", action="store_true", help="scale examples to unit norm")
    parser.add_argument("--shuffle-seed", type=_seed, help="shuffle examples before partitioning")
    parser.add_argument("--lambda1", type=_nonnegative)
    parser.add_argument("--lambda2", type=_nonnegative)
    parser.add_argument("--mode", choices=[COMPOSITE, SMOOTH])
    parser.add_argument("--seed", type=_seed, help="master seed")


def _checked(parse, ok, expects: str):
    """An argparse type: ``parse(text)``, rejected naming ``expects`` unless ``ok`` holds.

    Either may also reject the text by raising ``ValueError``.
    """

    def convert(text: str):
        try:
            value = parse(text)
            valid = ok(value)
        except ValueError:
            valid = False
        if not valid:
            raise argparse.ArgumentTypeError(f"expects {expects}; got {text!r}")
        return value

    return convert


def _split_synth(text: str) -> tuple[int, int, float]:
    N, d, sparsity = text.split(",")
    return int(N), int(d), float(sparsity)


_synth = _checked(
    _split_synth,
    lambda spec: min(spec[:2]) >= 1 and 0 < spec[2] <= 1,
    "N,d,sparsity with N, d >= 1 and sparsity in (0, 1]",
)
_eta = _checked(
    lambda text: text if text == "theory" else float(text),
    lambda eta: eta == "theory" or 0 <= eta < math.inf,
    "a nonnegative number or 'theory'",
)
_compressor = _checked(str, comp.parse_spec, "a compressor such as top_k:1, rand_k:5, dither or natural")
_positive_int = _checked(int, lambda v: v >= 1, "an integer >= 1")
# `verify compressors` checks fixed specs that keep up to 5 coordinates.
_verify_d = _checked(int, lambda v: v >= 5, "an integer >= 5")
# The Monte-Carlo verifiers draw in chunks, so a count no array can index would run forever.
_MAX_INDEX = int(np.iinfo(np.intp).max)
_trials = _checked(int, lambda v: 1 <= v <= _MAX_INDEX, f"an integer from 1 to {_MAX_INDEX}")
_seed = _checked(int, lambda v: v >= 0, "a nonnegative integer")
_probability = _checked(float, lambda v: 0 < v <= 1, "a number in (0, 1]")
_nonnegative = _checked(float, lambda v: 0 <= v < math.inf, "a nonnegative finite number")
_positive = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
_finite = _checked(float, math.isfinite, "a finite number")


def _source(field: str, args) -> str:
    """What sets ``RunConfig`` field ``field`` in the parsed command: its flag, else the field."""
    dest = "out_csv" if field == "out_json" else field  # cmd_run derives out_json from --out
    if dest not in vars(args):
        return field
    renamed = {"reference_tol": "--tol", "out_csv": "--out"}
    return "argument " + renamed.get(dest, "--" + dest.replace("_", "-"))


def _config_from_args(args) -> harness.RunConfig:
    """The ``RunConfig`` of the flags the subcommand parsed.

    A flag left out parses to None, and ``RunConfig`` supplies its default;
    ``--data`` replaces the default synthetic data.
    """
    names = {f.name for f in fields(harness.RunConfig)}
    given = {k: v for k, v in vars(args).items() if k in names and v is not None}
    config = harness.RunConfig(**given)
    return config if args.data is None else replace(config, synth=None)


def cmd_run(args) -> int:
    """Run one trial: per-record progress to stderr, the summary to stdout."""
    config = _config_from_args(args)
    if config.out_csv:
        config.out_json = os.path.splitext(config.out_csv)[0] + ".json"
    try:
        result = harness.run_experiment(config)
    except harness.NumericalError as err:
        step = "theta" if config.algo in harness.DUAL_ALGOS else "eta"
        if getattr(config, step) in (None, "theory"):
            raise  # the theory step diverged: a fault of the program, not of the input
        raise harness.ConfigError(step, str(err)) from err
    for rec in result.records:
        gap = "" if rec.dual_gap is None else f" dual_gap={rec.dual_gap:.3e}"
        print(
            f"k={rec.k} epoch={rec.epoch:.2f} bits={rec.bits:.3e}"
            f" primal_gap={rec.primal_gap:.3e}{gap} err={rec.err_norm:.3e}",
            file=sys.stderr,
        )
    target = f" bits_to_target={result.bits_to_target:.3e}" if result.bits_to_target else ""
    print(
        f"done algo={config.algo} compressor={config.compressor} steps={result.steps}"
        f" best_gap={result.best_gap:.3e} final_gap={result.final_gap:.3e}{target}"
    )
    if config.out_csv:
        print(f"trace written to {config.out_csv} and {config.out_json}")
    return 0


def cmd_verify(args) -> int:
    ok = True
    if args.what == "compressors":
        d = args.d
        streams = iter(split_rng(args.seed, "verify", i) for i in range(64))
        specs = [
            comp.top_k(1),
            comp.top_k(5),
            comp.rand_k(1),
            comp.rand_k(5),
            comp.scaled(comp.dithering()),
            comp.scaled(comp.natural()),
            comp.ntop_k(5),
            comp.rtop_k(5),
            comp.identity(),
        ]
        for spec in specs:
            with harness._blame("d"):  # a d that numpy or the host cannot allocate
                rep = comp.verify_contraction(spec, d, args.trials, next(streams))
            ok &= rep.passed
            print(
                f"contraction {rep.spec:>10} d={d}: mean={rep.mean_ratio:.4f}"
                f" (se {rep.std_error:.1e}) max={rep.max_ratio:.4f}"
                f" allowed={rep.allowed:.4f} -> {'ok' if rep.passed else 'FAIL'}"
            )
        # Coordinate-wise 3-SE checks have a ~0.3% false-alarm rate per
        # coordinate, so the mean checks run at a modest dimension.
        dm = min(d, 25)
        for spec in (comp.dithering(), comp.natural()):
            rep = comp.verify_unbiasedness(spec, dm, args.trials, next(streams))
            ok &= rep.passed
            print(
                f"unbiased   {rep.spec:>11} d={dm}: mean dev={rep.max_mean_deviation:.2e}"
                f" second={rep.second_moment:.3f} <= {rep.second_moment_bound:.3f}"
                f" -> {'ok' if rep.passed else 'FAIL'}"
            )
        for spec in (comp.rand_k(2), comp.scaled(comp.dithering())):
            rep = comp.verify_mean_scaling(spec, dm, args.trials, next(streams))
            ok &= rep.passed
            print(
                f"mean scale {rep.spec:>11} d={dm}: factor={rep.factor:.4f}"
                f" max dev={rep.max_abs_deviation:.2e} -> {'ok' if rep.passed else 'FAIL'}"
            )
    elif args.what == "eso":
        rng = split_rng(args.seed, "verify")
        for trial in range(args.instances):
            a = rng.standard_normal((10, 20))
            with harness._blame("trials"):  # a trial count that numpy or the host cannot allocate
                rep = harness.eso_check(a, n=4, trials=args.trials, rng=rng)
            ok &= rep.passed
            print(
                f"eso instance {trial}: ratio={rep.ratio:.4f} (se {rep.ratio_se:.1e})"
                f" -> {'ok' if rep.passed else 'FAIL'}"
            )
    elif args.what == "invariants":
        config = harness.RunConfig(
            synth=(80, 20, 0.4), synth_scale=0.5, n=4, seed=args.seed, compressor="top_k:1"
        )
        setup = harness.build_setup(config)
        for algo in ("ec_lsvrg", "ec_quartz"):
            # ec_quartz ignores eta and p, and takes its theory theta at delta = 1/20.
            opt, resolved = harness.build_optimizer(
                replace(config, algo=algo, eta=0.05, p=0.05), setup
            )
            for _ in range(200):
                opt.step()
            opt.certify()
            at = "" if resolved.theta is None else f" at theta={resolved.theta:.3e}"
            print(f"{algo}: 200 steps{at}, per-step identities and full check held")
    else:
        raise SystemExit(f"unknown verify target {args.what!r}")
    print("all checks passed" if ok else "FAILURES above")
    return 0 if ok else 1


def cmd_reference(args) -> int:
    setup = harness.build_setup(_config_from_args(args))
    ref = setup.reference
    print(f"P* = {ref.value!r}  (||x*|| = {np.linalg.norm(ref.x):.6f}, d = {setup.primal.d})")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ecvr",
        description="Simulate error-compensated variance-reduced distributed optimization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    run = sub.add_parser("run", help="run one optimizer trial and emit its trace")
    _add_data_args(run)
    run.add_argument("--algo", choices=list(harness.ALGOS))
    run.add_argument("--compressor", type=_compressor, help="e.g. top_k:1, rand_k:5, dither, natural")
    run.add_argument("--compressor-q1", type=_compressor)
    run.add_argument("--eta", type=_eta, help="step size or 'theory' (the default)")
    run.add_argument("--theta", type=_probability, help="dual step parameter (default: theory)")
    run.add_argument("--p", type=_probability, help="reference refresh probability (default: delta)")
    run.add_argument("--epochs", type=_nonnegative)
    run.add_argument("--cadence", type=_positive_int, help="steps between records")
    run.add_argument("--gap-target", type=_finite)
    run.add_argument(
        "--out", dest="out_csv", metavar="OUT", help="CSV trace path (JSON written alongside)"
    )
    run.set_defaults(func=cmd_run, parser=run)

    verify = sub.add_parser("verify", help="run statistical/invariant verifiers")
    verify.add_argument("what", choices=["compressors", "eso", "invariants"])
    verify.add_argument("--d", type=_verify_d, default=100)
    verify.add_argument("--trials", type=_trials, default=10_000)
    verify.add_argument("--instances", type=_positive_int, default=20)
    verify.add_argument("--seed", type=_seed, default=0)
    verify.set_defaults(func=cmd_verify, parser=verify)

    ref = sub.add_parser("reference", help="solve the problem to high accuracy")
    _add_data_args(ref)
    ref.add_argument("--tol", dest="reference_tol", metavar="TOL", type=_positive)
    ref.set_defaults(func=cmd_reference, parser=ref)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except harness.ConfigError as err:
        # A value only the data can check: reported like argparse's own errors.
        args.parser.error(f"{_source(err.field, args)}: {err}")


if __name__ == "__main__":
    sys.exit(main())
