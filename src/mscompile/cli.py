"""Command-line surface: compile (verified before it is written), print angles, dump series, verify.

Exit codes: 0 success/verified, 1 verification failed, 2 synthesis failed,
64 usage error, 141 stdout closed by its reader.
"""

from __future__ import annotations

import argparse
import math
import os
import sys

import numpy as np

from . import simulate
from .circuit import (
    CircuitFormatError,
    build_crot_circuit,
    build_toffoli_circuit,
    deserialize,
    plan_merged_angles,
    serialize,
    to_text,
)
from .series import SynthesisError
from .subspace import compute_thetas, default_params
from .synthesis import _crot_quadruple, crot_angles, weighted_angles

USAGE_ERROR = 64
SYNTHESIS_ERROR = 2
VERIFY_ERROR = 1


def parse_angle(text: str) -> float:
    """Parse '0.3', 'pi', '-pi', '2pi', 'pi/2', '3pi/4', '2*pi/3' into radians."""
    s = text.strip().lower().replace(" ", "").replace("*", "")
    sign = 1.0
    if s.startswith(("+", "-")):
        sign = -1.0 if s[0] == "-" else 1.0
        s = s[1:]
    try:
        if "pi" in s:
            num, _, rest = s.partition("pi")
            value = (float(num) if num else 1.0) * math.pi
            if rest:
                if not rest.startswith("/"):
                    raise ValueError
                divisor = float(rest[1:])
                if not math.isfinite(divisor):
                    raise ValueError
                value /= divisor
        else:
            value = float(s)
        if not math.isfinite(value):
            raise ValueError
        return sign * value
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"cannot parse angle {text!r}") from None


def parse_angle_list(text: str) -> tuple[float, ...]:
    return tuple(parse_angle(part) for part in text.split(","))


def _positive_int(text: str) -> int:
    """Parse an integer of at least 1 (``--precision``, ``--grid-points``)."""
    try:
        value = int(text)
    except ValueError:
        value = 0
    if value < 1:
        raise argparse.ArgumentTypeError(f"expected an integer >= 1, got {text!r}")
    return value


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(USAGE_ERROR, f"{self.prog}: error: {message}\n")


def _build_parser() -> _Parser:
    parser = _Parser(prog="mscompile", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("crot-angles", help="print the pulse-train angles for a controlled Rz")
    p.add_argument("--n", type=int, required=True, help="total qubit count (N-1 controls + target)")
    p.add_argument("--alpha", type=parse_angle, required=True, help="rotation angle (accepts pi forms)")
    p.add_argument("--merged", action="store_true", help="print the 2N+1 combined z-rotations instead")
    p.add_argument("--precision", type=_positive_int, default=12, help="significant digits (default 12)")

    p = sub.add_parser("compile", help="compile a gate, verify it and write the circuit to a file")
    p.add_argument("--kind", choices=("crot", "toffoli", "weighted"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parse_angle, help="rotation angle (crot)")
    p.add_argument("--alphas", type=parse_angle_list, help="comma-separated per-weight angles (weighted)")
    p.add_argument("--out", required=True, help="output path")
    p.add_argument("--format", choices=("json", "text"), default="json")

    p = sub.add_parser("verify", help="simulate a circuit file against an ideal gate")
    p.add_argument("--circuit", required=True, help="JSON circuit file")
    p.add_argument("--target", choices=("crot", "toffoli", "weighted"), required=True)
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parse_angle)
    p.add_argument("--alphas", type=parse_angle_list)
    p.add_argument("--tolerance", type=float, default=simulate.VERIFY_TOLERANCE)

    p = sub.add_parser("series", help="tabulate the fitted series A, B, C, D over theta")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--alpha", type=parse_angle, required=True)
    p.add_argument("--grid-points", type=_positive_int, default=513)
    p.add_argument("--out", required=True)

    sub.add_parser("table", help="merged angles and worst_block verdicts for N = 3..6, alpha = -pi")
    return parser


def _fmt(value: float, precision: int = 12) -> str:
    return format(value, f".{precision}g")


def cmd_crot_angles(args) -> int:
    plan = crot_angles(args.n, args.alpha)
    pr = args.precision
    print(f"n = {plan.n}  tau = {_fmt(plan.tau, pr)}  h = {_fmt(plan.h, pr)}  L = {plan.num_pulses}")
    if args.merged:
        for j, angle in enumerate(plan_merged_angles(plan)):
            print(f"merged_phi_{j} = {_fmt(angle, pr)}")
    else:
        for j, angle in enumerate(plan.phis):
            print(f"phi_{j} = {_fmt(angle, pr)}")
    return 0


def _need_angles(kind: str, args) -> None:
    """The CLI's own rule, for compile and verify alike: crot needs --alpha, weighted --alphas."""
    if (flag := {"crot": "alpha", "weighted": "alphas"}.get(kind)) and getattr(args, flag) is None:
        raise ValueError(f"{kind} needs --{flag}")


def _print_verdict(verdict: simulate.Verdict, tolerance: float) -> int:
    """The verdict lines of ``verify`` (and of a ``compile`` that fails them), and their exit code."""
    print(f"worst_block = {verdict.worst_block:.3e}")
    word = "PASS" if verdict.passed else "FAIL"
    print(f"phase_distance = {verdict.phase_distance:.6e}  tolerance = {tolerance:.1e}  {word}")
    return 0 if verdict.passed else VERIFY_ERROR


def cmd_compile(args) -> int:
    _need_angles(args.kind, args)
    if args.kind == "crot":
        circ = build_crot_circuit(crot_angles(args.n, args.alpha))
    elif args.kind == "toffoli":
        circ = build_toffoli_circuit(args.n)
    else:
        circ = build_crot_circuit(weighted_angles(args.n, args.alphas))
    verdict = simulate.verify_circuit(circ, args.kind, args.n, args.alpha, args.alphas)
    if not verdict.passed:  # nothing is written
        return _print_verdict(verdict, simulate.VERIFY_TOLERANCE)
    payload = serialize(circ) if args.format == "json" else to_text(circ).encode()
    with open(args.out, "wb") as fh:
        fh.write(payload)
    print(f"wrote {args.out}: {circ.num_qubits} qubits, {circ.ms_count()} MS gates")
    return 0


def cmd_verify(args) -> int:
    _need_angles(args.target, args)
    try:
        with open(args.circuit, "rb") as fh:
            circ = deserialize(fh.read())
    except (OSError, CircuitFormatError) as exc:
        print(f"error: cannot load circuit: {exc}", file=sys.stderr)
        return USAGE_ERROR
    verdict = simulate.verify_circuit(circ, args.target, args.n, args.alpha, args.alphas, args.tolerance)
    return _print_verdict(verdict, args.tolerance)


def cmd_series(args) -> int:
    a, b, c, d = _crot_quadruple(args.n, args.alpha)
    thetas = np.linspace(-np.pi, np.pi, args.grid_points)
    with open(args.out, "w") as fh:
        fh.write("theta\tA\tB\tC\tD\n")
        for t in thetas:
            fh.write(f"{t:.12g}\t{a(t):.12g}\t{b(t):.12g}\t{c(t):.12g}\t{d(t):.12g}\n")
        fh.write("\n# pinned points theta_q\n")
        fh.write("# theta_q\tA\tB\tC\tD\n")
        for t in compute_thetas(args.n, *default_params(args.n)):
            fh.write(f"# {t:.12g}\t{a(t):.12g}\t{b(t):.12g}\t{c(t):.12g}\t{d(t):.12g}\n")
    print(f"wrote {args.out}: {args.grid_points} grid rows")
    return 0


def cmd_table(args) -> int:
    print("merged z-rotation angles for the controlled-iZ (alpha = -pi), 3 decimals; worst_block of the circuit")
    for n in range(3, 7):
        plan = crot_angles(n, -np.pi)
        block_miss = simulate.verify_circuit(build_crot_circuit(plan), "crot", n, alpha=-np.pi).worst_block
        angles = "  ".join(f"{m:6.3f}" for m in plan_merged_angles(plan))
        print(f"N={n}  tau=pi/{n}  [{angles}]  worst_block={block_miss:.2e}")
    return 0


_HANDLERS = {
    "crot-angles": cmd_crot_angles,
    "compile": cmd_compile,
    "verify": cmd_verify,
    "series": cmd_series,
    "table": cmd_table,
}


def _glue_angle_values(argv: list[str]) -> list[str]:
    """Rewrite '--alpha -pi' as '--alpha=-pi' so argparse keeps the value."""
    out = []
    i = 0
    while i < len(argv):
        tok = argv[i]
        if tok in ("--alpha", "--alphas") and i + 1 < len(argv):
            out.append(f"{tok}={argv[i + 1]}")
            i += 2
        else:
            out.append(tok)
            i += 1
    return out


def main(argv=None) -> int:
    parser = _build_parser()
    if argv is None:
        argv = sys.argv[1:]
    try:
        args = parser.parse_args(_glue_angle_values(list(argv)))
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else USAGE_ERROR
    try:
        code = _HANDLERS[args.command](args)
        sys.stdout.flush()
        return code
    except BrokenPipeError:  # the reader closed stdout: end quietly, as a SIGPIPE death would
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())  # keeps the exit-time flush quiet
        return 141  # 128 + SIGPIPE
    except SynthesisError as exc:
        print(f"synthesis failed: {exc}", file=sys.stderr)
        return SYNTHESIS_ERROR
    except (ValueError, OSError) as exc:  # OSError: an --out path that cannot be written
        print(f"error: {exc}", file=sys.stderr)
        return USAGE_ERROR


if __name__ == "__main__":
    sys.exit(main())
