"""Command-line surface: thresholds, boundary sweeps, certification, validation.

Exit codes: 0 success, 1 malformed input, 2 optimizer failure, 3 validation
or recheck failure.  All outputs are written atomically and, for a fixed
config and seed, are byte-identical across runs.  A usage error (an unknown
flag, a missing argument) is malformed input too, and exits 1.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from dataclasses import replace
from pathlib import Path

import numpy as np

from ._util import atomic_write_text, dumps_stable, require_integer, require_real
from .boundary import (
    certify_pairs,
    curves_from_csv,
    curves_to_csv,
    first_csv_error,
    hull_to_json,
    omega_grid,
    repair_log,
    sweep_family_ranks,
)
from .errors import OptimizerError, TailBoundError
from .estimator import check_pair_array
from .fock_gaussian import GaussianUnitaryParams, block_in_range, gaussian_block
from .multimode import MultimodeWitness, multimode_result_to_json, multimode_threshold
from .states import PROBABILITY_SLACK, FockDensity, FockVector, state_from_json
from .threshold import OptimizerConfig, compute_threshold, result_to_json
from .validation import CHECKED_BLOCK_SIDE, ELEMENTS_TOL, block_deviation, run_suites
from .witness import (
    expectation,
    family_descriptor,
    family_witness,
    rescale_to_unit,
    trace_distance_lower_bound,
    witness_from_json,
)

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_OPTIMIZER = 2
EXIT_VALIDATION = 3


def _load_json(path: str) -> dict:
    """The JSON object a file holds; any other top level is malformed input."""
    try:
        with open(path) as handle:
            obj = json.load(handle)
    except FileNotFoundError:
        raise ValueError(f"file not found: {path}")
    except json.JSONDecodeError as err:
        raise ValueError(f"malformed JSON in {path} at line {err.lineno}, column {err.colno}: {err.msg}")
    if not isinstance(obj, dict):
        raise ValueError(f"{path} must hold a JSON object")
    return obj


def _emit(text: str, out: str | None) -> None:
    if out:
        atomic_write_text(out, text)
    else:
        sys.stdout.write(text)


def _build_config(args) -> OptimizerConfig:
    """The optimizer config of the --config file (the defaults without one),
    with each optimizer flag that was given in place of its field."""
    base = _load_json(args.config) if args.config else {}
    flags = {"seed": args.seed, "starts": args.starts, "max_iterations": args.max_iterations}
    given = {name: value for name, value in flags.items() if value is not None}
    return replace(OptimizerConfig.from_json(base), **given)


def _threshold_text(witness_obj: dict, rank: int, config: OptimizerConfig) -> str:
    """The threshold file of a witness file's object at a rank: multimode
    when the witness declares `modes`, single-mode otherwise."""
    if "modes" in witness_obj:
        witness = MultimodeWitness.from_json(witness_obj)
        result = multimode_threshold(witness, witness.modes, rank, config)
        payload = multimode_result_to_json(witness, result)
    else:
        witness = witness_from_json(witness_obj)
        payload = result_to_json(witness, compute_threshold(witness, rank, config))
    return dumps_stable(payload) + "\n"


def cmd_threshold(args) -> int:
    if args.recheck and not args.out:
        raise ValueError("--recheck needs --out")
    text = _threshold_text(_load_json(args.witness), args.rank, _build_config(args))
    _emit(text, args.out)
    if args.recheck:
        return _recheck_threshold(args.out, args.rank)
    return EXIT_OK


def _recheck_threshold(path: str, rank: int) -> int:
    """Regenerate a threshold file from its own witness, config and seed; an
    outer `modes` that disagrees with the witness makes the files differ."""
    stored = Path(path).read_text()
    obj = _load_json(path)
    config = OptimizerConfig.from_json(obj["diagnostics"]["config"], seed=obj["seed"])
    if _threshold_text(obj["witness"], rank, config) != stored:
        sys.stderr.write("recheck failed: regenerated threshold file differs\n")
        return EXIT_VALIDATION
    return EXIT_OK


def _family_from_args(args) -> dict:
    beta = None if args.beta is None else _complex_from_flags(args.beta)
    return family_descriptor({"type": args.family, "j": args.j, "k": args.k, "beta": beta})


def _complex_from_flags(values) -> complex:
    if len(values) == 1:
        return complex(values[0], 0.0)
    if len(values) == 2:
        return complex(values[0], values[1])
    raise ValueError("complex flags take one or two floats (RE [IM])")


def _boundary_outputs(family, ranks, omega_count, config):
    """The boundary directory's files by name."""
    curves = sweep_family_ranks(family, ranks, omega_grid(omega_count), config)
    manifest = {
        "family": family,
        "ranks": list(ranks),
        "omegas": omega_count,
        "seed": config.seed,
        "config": config.to_json(),
    }
    repairs = repair_log(curves)
    if repairs["rerun"] or repairs["unresolved"]:
        manifest["repairs"] = repairs
    files = {
        "manifest.json": dumps_stable(manifest) + "\n",
        "boundary.csv": curves_to_csv(curves),
    }
    for curve in curves:
        files[f"hull_rank_{curve.rank}.json"] = dumps_stable(hull_to_json(curve)) + "\n"
    return files


def cmd_boundary(args) -> int:
    family = _family_from_args(args)
    if args.ranks:
        ranks = sorted(args.ranks)
    else:
        ranks = list(range(1, args.max_rank + 1))
    if not ranks or ranks != list(range(ranks[0], ranks[-1] + 1)) or ranks[0] < 1:
        raise ValueError(f"ranks must be consecutive and start at >= 1, got {ranks}")
    config = _build_config(args)
    files = _boundary_outputs(family, ranks, args.omegas, config)
    for name, text in files.items():
        atomic_write_text(os.path.join(args.out, name), text)
    if args.recheck:
        manifest = _load_json(os.path.join(args.out, "manifest.json"))
        config = OptimizerConfig.from_json(manifest["config"], seed=manifest["seed"])
        regenerated = _boundary_outputs(
            manifest["family"], manifest["ranks"], manifest["omegas"], config
        )
        for name, text in regenerated.items():
            if Path(args.out, name).read_text() != text:
                sys.stderr.write(f"recheck failed: {name} differs\n")
                return EXIT_VALIDATION
    return EXIT_OK


def _load_curves(directory: str):
    """The family and curves of a `boundary` directory; a malformed
    manifest.json or boundary.csv is refused with the file named, and the
    key or the line."""
    manifest_path = os.path.join(directory, "manifest.json")
    manifest = _load_json(manifest_path)
    csv_path = os.path.join(directory, "boundary.csv")
    if not os.path.exists(csv_path):
        raise ValueError(f"missing boundary.csv in {directory}")
    if "family" not in manifest:
        raise ValueError(f'{manifest_path} has no "family"')
    try:
        family = family_descriptor(manifest["family"])
    except (ValueError, TypeError) as err:
        raise ValueError(f'"family" of {manifest_path}: {err}') from None
    text = Path(csv_path).read_text()
    try:
        curves = curves_from_csv(text, family)
    except ValueError as err:
        line, _ = first_csv_error(text)
        raise ValueError(f"{csv_path}, line {line}: {err}") from None
    ranks = [curve.rank for curve in curves]
    if ranks != manifest.get("ranks"):
        raise ValueError(
            f"boundary.csv in {directory} holds the curves of ranks {ranks}, "
            f"but manifest.json lists ranks {manifest.get('ranks')}"
        )
    for curve in curves:  # -inf would certify every pair in its direction, inf or NaN none
        omega, threshold = curve.columns[:2]
        bad = ~np.isfinite(threshold[1:])
        if bad.any():
            at = bad.argmax() + 1
            raise ValueError(
                f"{csv_path}: the threshold at rank {curve.rank}, omega={omega[at]} is {threshold[at]}, "
                "not a finite number"
            )
    return family, curves


def _pair_from_state(state, family: dict):
    if family["type"] == "fock_pair":
        probs = state.probabilities() if isinstance(state, (FockVector, FockDensity)) else state
        j, k = family["j"], family["k"]
        get = lambda idx: float(probs[idx]) if idx < probs.size else 0.0
        return get(j), get(k)
    if not isinstance(state, (FockVector, FockDensity)):
        raise ValueError("cat fidelities need a fock_vector or density state file")
    first = expectation(family_witness(family, 0.0), state)
    second = expectation(family_witness(family, math.pi / 2.0), state)
    return first, second


def _load_state(path: str):
    """The state a --state file holds (see `state_from_json`), refused, with
    the file named, unless the norm² of its amplitudes or the trace of its
    density is at most 1 + PROBABILITY_SLACK."""
    obj = _load_json(path)
    try:
        state = state_from_json(obj)
        if isinstance(state, FockVector):
            mass, what = state.norm_sq(), "fock_vector amplitudes have norm squared"
        elif isinstance(state, FockDensity):
            mass, what = state.trace(), "density has trace"
        else:
            return state
        if mass > 1.0 + PROBABILITY_SLACK:
            raise ValueError(f"{what} {mass:.17g}, above 1")
    except ValueError as err:
        raise ValueError(f"state file {path}: {err}") from None
    return state


def _stored_threshold(path: str, rank: int) -> float:
    """The value of a --threshold-file for `rank`: its "rank" must be an
    integer >= 1 equal to `rank`, its "value" a finite number."""
    stored = _load_json(path)
    stored_rank = require_integer(stored.get("rank"), f'"rank" of threshold file {path}', 1)
    if stored_rank != rank:
        raise ValueError(f"threshold file {path} is for rank {stored_rank}, requested {rank}")
    return require_real(stored.get("value"), f'"value" of threshold file {path}')


def _checked_pair(pair, source: str) -> tuple:
    """A measured pair as floats, refused unless :func:`check_pair_array`
    accepts it (finite, in [0, 1])."""
    try:
        ((first, second),) = check_pair_array(pair)
    except ValueError as err:
        raise ValueError(f"{source}: {err}, got {[float(p) for p in pair]}") from None
    return float(first), float(second)


def _bound_from_separation(witness, value, threshold):
    a, b, _ = rescale_to_unit(witness)
    return trace_distance_lower_bound(a * value + b, a * threshold + b)


def cmd_certify(args) -> int:
    margin = args.margin
    # certify_pairs also rejects such a margin, but the --witness path
    # compares against threshold + margin directly.
    if not (math.isfinite(margin) and margin >= 0.0):
        raise ValueError(f"--margin must be finite and >= 0, got {margin}")
    pair = None if args.pair is None else _checked_pair(args.pair, "--pair")
    report = {"margin": margin}
    if args.curves:
        family, curves = _load_curves(args.curves)
        if pair is None and args.state:
            state_pair = _pair_from_state(_load_state(args.state), family)
            pair = _checked_pair(state_pair, f"the pair of {args.state}")
        elif pair is None:
            raise ValueError("certify needs --pair or --state")
        ranks, omegas, thresholds = certify_pairs([pair], curves, margin)
        rank = int(ranks[0])
        report.update({"pair": [pair[0], pair[1]], "certified_rank": rank})
        if rank > 0:
            omega, threshold = float(omegas[0]), float(thresholds[0])
            witness = family_witness(family, omega)
            value = math.cos(omega) * pair[0] + math.sin(omega) * pair[1]
            report.update(
                {
                    "separating_omega": omega,
                    "witness_value": value,
                    "threshold": threshold,
                    "trace_distance_lower_bound": _bound_from_separation(witness, value, threshold),
                }
            )
    elif args.witness:
        if args.rank is None:
            raise ValueError("certify with --witness needs --rank")
        witness_obj = _load_json(args.witness)
        witness = witness_from_json(witness_obj)
        if args.state:
            state = _load_state(args.state)
            if isinstance(state, np.ndarray):
                raise ValueError("witness certification needs amplitudes or a density matrix")
            value = expectation(witness, state)
        elif pair is not None:
            omega = (witness.descriptor or {}).get("omega")  # only pair families have one
            if omega is None:
                raise ValueError("--pair certification needs a pair-family witness")
            value = math.cos(omega) * pair[0] + math.sin(omega) * pair[1]
        else:
            raise ValueError("certify needs --pair or --state")
        if args.threshold_file:
            threshold = _stored_threshold(args.threshold_file, args.rank)
        else:
            config = _build_config(args)
            threshold = compute_threshold(witness, args.rank, config).value
        certified = args.rank if value > threshold + margin else 0
        report.update(
            {
                "certified_rank": certified,
                "witness_value": value,
                "threshold": threshold,
                "trace_distance_lower_bound": _bound_from_separation(witness, value, threshold),
            }
        )
    else:
        raise ValueError("certify needs --curves or --witness")
    _emit(dumps_stable(report) + "\n", args.out)
    return EXIT_OK


def cmd_validate(args) -> int:
    report = run_suites(args.suite, seed=args.seed if args.seed is not None else 703)
    _emit(dumps_stable(report) + "\n", args.out)
    return EXIT_OK if report["pass"] else EXIT_VALIDATION


def cmd_gaussian_elements(args) -> int:
    params = GaussianUnitaryParams(
        theta=args.theta, vartheta=args.vartheta, r=args.r, alpha=_complex_from_flags(args.alpha)
    )
    if not block_in_range(params):
        raise ValueError("displacement out of range: <0|U|0> underflows, so every entry would be zero")
    block = gaussian_block(params, args.rows, args.cols)
    # a block of a unitary has no row or column of norm above 1; one that
    # does has lost accuracy in the recurrence and is not printed
    worst = max(np.linalg.norm(block, axis=0).max(), np.linalg.norm(block, axis=1).max())
    if not worst <= 1.0 + 1e-9:
        sys.stderr.write(
            f"block rejected: a row or column norm is {worst:.6g} > 1, so its entries "
            "cannot be trusted (try a smaller block)\n"
        )
        return EXIT_VALIDATION
    if block.shape[1] > 1 and max(block.shape) > CHECKED_BLOCK_SIDE:
        try:
            deviation = block_deviation(params, block)
        except TailBoundError as err:
            sys.stderr.write(f"block rejected: the oracle cannot check a block this large here: {err}\n")
            return EXIT_VALIDATION
        if not deviation <= ELEMENTS_TOL:
            sys.stderr.write(
                f"block rejected: it is {deviation:.3g} away from the oracle, above "
                f"{ELEMENTS_TOL:g} (try a smaller block)\n"
            )
            return EXIT_VALIDATION
    payload = {
        "params": params.to_json(),
        "rows": args.rows,
        "cols": args.cols,
        "block": [[[float(z.real), float(z.imag)] for z in row] for row in block],
    }
    _emit(dumps_stable(payload) + "\n", args.out)
    return EXIT_OK


class _ArgumentParser(argparse.ArgumentParser):
    def error(self, message):
        """argparse's usage message, with the malformed-input exit code."""
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgumentParser(
        prog="stellarwitness",
        description="Witnesses of stellar rank: thresholds, boundary curves, certification.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_optimizer_flags(p):
        p.add_argument("--config", help="optimizer config JSON file")
        p.add_argument("--seed", type=int, help="optimizer seed (overrides config file)")
        p.add_argument("--starts", type=int, help="multi-start count")
        p.add_argument("--max-iterations", dest="max_iterations", type=int,
                       help="budget per start of the function evaluations the search uses")

    p = sub.add_parser("threshold", help="compute a witness threshold at a rank")
    p.add_argument("witness", help="witness JSON file")
    p.add_argument("--rank", type=int, required=True)
    add_optimizer_flags(p)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.add_argument("--recheck", action="store_true",
                   help="re-run from the emitted file and require byte-identical output")
    p.set_defaults(handler=cmd_threshold)

    p = sub.add_parser("boundary", help="sweep a witness family and emit curves")
    p.add_argument("--family", choices=("fock_pair", "cat_pair"), required=True)
    p.add_argument("--j", type=int)
    p.add_argument("--k", type=int)
    p.add_argument("--beta", type=float, nargs="+", help="cat amplitude RE [IM]")
    p.add_argument("--ranks", type=int, nargs="+", help="explicit rank list")
    p.add_argument("--max-rank", dest="max_rank", type=int, default=3)
    p.add_argument("--omegas", type=int, default=256, help="grid size over [0, 2pi)")
    add_optimizer_flags(p)
    p.add_argument("--out", required=True, help="output directory")
    p.add_argument("--recheck", action="store_true")
    p.set_defaults(handler=cmd_boundary)

    p = sub.add_parser("certify", help="certify stellar rank of a pair or state")
    p.add_argument("--pair", type=float, nargs=2, help="measured pair p_first p_second")
    p.add_argument("--state", help="state JSON file")
    p.add_argument("--curves", help="directory produced by `boundary`")
    p.add_argument("--witness", help="witness JSON file (single-witness mode)")
    p.add_argument("--rank", type=int, help="rank to certify against (single-witness mode)")
    p.add_argument("--threshold-file", dest="threshold_file", help="precomputed threshold JSON")
    p.add_argument("--margin", type=float, default=1e-4,
                   help="safety margin added to thresholds (default 1e-4)")
    add_optimizer_flags(p)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(handler=cmd_certify)

    p = sub.add_parser("validate", help="run oracle-equivalence self-check suites")
    p.add_argument("--suite", choices=("elements", "states", "hull", "all"), default="all")
    p.add_argument("--seed", type=int)
    p.add_argument("--out", help="report JSON path (default stdout)")
    p.set_defaults(handler=cmd_validate)

    p = sub.add_parser("gaussian-elements", help="dump an analytic matrix-element block")
    p.add_argument("--theta", type=float, default=0.0)
    p.add_argument("--vartheta", type=float, default=0.0)
    p.add_argument("--r", type=float, default=0.0)
    p.add_argument("--alpha", type=float, nargs="+", default=[0.0])
    p.add_argument("--rows", type=int, required=True)
    p.add_argument("--cols", type=int, required=True)
    p.add_argument("--out", help="output JSON path (default stdout)")
    p.set_defaults(handler=cmd_gaussian_elements)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.handler(args)
    except OptimizerError as err:
        sys.stderr.write(f"optimizer failure: {err}\n")
        return EXIT_OPTIMIZER
    except (ValueError, KeyError, TypeError, OSError) as err:
        sys.stderr.write(f"error: {err}\n")
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
