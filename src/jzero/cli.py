"""Batch experiment runner: every pipeline as a subcommand.

Forms are passed as comma-separated coefficients, highest degree first
(three numbers for a quadratic, five for a quartic).  Every run emits a
JSON summary carrying the version, the seed, and a hash of the effective
configuration (timestamps excluded), so identical configurations yield
byte-identical artifacts.

The global options --config, --seed, --threads and --out may be written
before or after the subcommand.  ``--config FILE`` reads ``key = value``
lines (``#`` starts a comment line); each key is the long option name,
without dashes, of a global option or of an option of the chosen command,
and its value becomes that option's default.  Precedence: command line >
config file > JZERO_THREADS > built-in default.  A key that is not such
an option is a configuration error.  So is an --out or --csv path that
cannot be written, found before the run.

--threads takes 1 to 64 worker processes (``counting.MAX_WORKERS``); any
other value is a configuration error.  The configuration hash leaves out
the output paths --out and --csv, so one run written to two files has one
hash.

Exit codes: 0 success, 1 verification failure, 2 configuration error,
3 resource exhaustion.
"""

from __future__ import annotations

import argparse
import csv
import decimal
import hashlib
import inspect
import json
import math
import os
import re
import sys
import time

from . import classes, counting, forms, oracle, verify

VERSION = "0.1.0"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_CONFIG_ERROR = 2
EXIT_RESOURCE = 3


class ConfigError(Exception):
    pass


def parse_quartic(text: str) -> forms.QuarticForm:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 5:
        raise ConfigError(f"quartic needs 5 coefficients, got {len(parts)}")
    try:
        return forms.QuarticForm(*(int(p) for p in parts))
    except ValueError as e:
        raise ConfigError(f"bad quartic {text!r}: {e}")


def parse_quadratic(text: str) -> forms.QuadraticForm:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ConfigError(f"quadratic needs 3 coefficients, got {len(parts)}")
    try:
        return forms.QuadraticForm(*(int(p) for p in parts))
    except ValueError as e:
        raise ConfigError(f"bad quadratic {text!r}: {e}")


# Ladder values are used as floats in the fitted constants and ratios.
_MAX_LADDER_X = decimal.Decimal(sys.float_info.max)


def parse_ladder(text: str) -> list[int]:
    """Exact non-negative integers, also in scientific notation such as
    1e9."""
    out = []
    for p in text.split(","):
        if not p.strip():
            continue
        try:
            x = decimal.Decimal(p)
        except decimal.InvalidOperation:
            raise ConfigError(f"bad ladder value {p.strip()!r}")
        if not x.is_finite() or x != x.to_integral_value():
            raise ConfigError(f"ladder value {p.strip()!r} is not an integer")
        if x < 0:
            raise ConfigError(f"ladder value {p.strip()!r} is negative")
        if x > _MAX_LADDER_X:
            raise ConfigError(f"ladder value {p.strip()!r} is too large")
        out.append(int(x))
    if not out or any(b <= a for a, b in zip(out, out[1:])):
        raise ConfigError("ladder must be non-empty and strictly increasing")
    return out


def load_config_file(path: str) -> dict:
    out = {}
    try:
        with open(path) as fh:
            lines = fh.readlines()
    except OSError as e:
        raise ConfigError(f"cannot read config file {path!r}: {e.strerror}")
    for line in lines:
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        if "=" not in line:
            raise ConfigError(f"bad config line: {line!r}")
        k, v = line.split("=", 1)
        if k.strip() in out:
            raise ConfigError(f"config key {k.strip()!r} is given twice")
        out[k.strip()] = v.strip()
    return out


def _settable(parser: argparse.ArgumentParser) -> dict[str, argparse.Action]:
    """Long option name (without dashes) -> action, for every option of
    ``parser`` that a config file may set."""
    return {
        s[2:]: a
        for a in parser._actions
        for s in a.option_strings
        if s.startswith("--") and a.dest not in ("help", "config")
    }


def _commands(ap: argparse.ArgumentParser) -> dict[str, argparse.ArgumentParser]:
    return next(a for a in ap._actions if a.dest == "command").choices


def _config_value(action: argparse.Action, key: str, text: str):
    try:
        value = action.type(text) if action.type else text
    except ValueError:
        raise ConfigError(f"config key {key!r}: bad value {text!r}")
    if action.choices is not None and value not in action.choices:
        raise ConfigError(
            f"config key {key!r}: {text!r} is not one of {sorted(action.choices)}"
        )
    return value


def apply_config(ap: argparse.ArgumentParser, cfg: dict) -> None:
    """Make the config file's values the defaults of the options they name.

    A global option gets its default on the top-level parser, so a value
    given on the command line, on either side of the subcommand, still wins.
    Any other key sets the option of every command that has it, which then
    is no longer required; ``check_config_keys`` rejects it after parsing
    if the chosen command is not among them.
    """
    commands = _commands(ap).values()
    for key, text in cfg.items():
        if key in _settable(ap):
            targets = [ap]
        else:
            targets = [p for p in commands if key in _settable(p)]
        if not targets:
            raise ConfigError(f"config key {key!r} is not an option of any command")
        for p in targets:
            action = _settable(p)[key]
            p.set_defaults(**{action.dest: _config_value(action, key, text)})
            action.required = False


def check_config_keys(ap: argparse.ArgumentParser, cfg: dict, command: str) -> None:
    known = _settable(ap).keys() | _settable(_commands(ap)[command]).keys()
    stray = sorted(set(cfg) - known)
    if stray:
        raise ConfigError(f"config keys {stray} are not options of {command!r}")


def config_hash(cfg: dict) -> str:
    """Hash of the run's configuration; the output paths are not part of it."""
    clean = {k: v for k, v in cfg.items() if k not in ("timestamp", "out", "csv")}
    return hashlib.sha256(
        json.dumps(clean, sort_keys=True).encode()
    ).hexdigest()[:16]


def check_output_path(path: str) -> None:
    """Raise ConfigError unless a file can be written at `path`, so that a
    bad --out or --csv ends the run before its work, not after.  The check
    opens the file for appending, which leaves an existing file as it is,
    and removes a file it made."""
    existed = os.path.lexists(path)
    try:
        with open(path, "a"):
            pass
    except OSError as e:
        raise ConfigError(f"cannot write {path!r}: {e.strerror}")
    if not existed:
        os.remove(path)


def emit_summary(args, payload: dict, outfile=None) -> dict:
    cfg = {k: str(v) for k, v in vars(args).items() if k != "func"}
    doc = {
        "version": VERSION,
        "seed": getattr(args, "seed", None),
        "config": cfg,
        "config_hash": config_hash(cfg),
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%S"),
        **payload,
    }
    text = json.dumps(doc, indent=2, default=str)
    if outfile:
        with open(outfile, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)
    return doc


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_invariants(args) -> int:
    F = parse_quartic(args.form)
    t = forms.invariants(F)
    payload = {"form": str(F), "I": t.I, "J": t.J, "disc": t.disc}
    res = forms.hessian_sqrt(F)
    if res is not None:
        f, c = res
        payload["hessian_divisor"] = f.coeffs()
        payload["hessian_scale"] = c
    payload["splitting_type"] = forms.splitting_type(F).value
    if not F.is_zero():
        payload["irreducible_over_Q"] = forms.is_irreducible_Q(F)
    emit_summary(args, payload, args.out)
    return EXIT_OK


def cmd_reduce(args) -> int:
    f = parse_quadratic(args.form)
    g, T = classes.reduce_form(f)
    emit_summary(
        args,
        {"form": f.coeffs(), "reduced": g.coeffs(), "transform": T.entries()},
        args.out,
    )
    return EXIT_OK


def cmd_classgroup(args) -> int:
    D = args.D
    els = [c.rep.coeffs() for c in classes.class_group(D).elements]
    # every ordered pair of classes composed in one row pass
    rows = classes.enumerate_reduced(D, D + 1)
    i, j = classes.class_pairs(rows)
    composites = classes.compose_rows(rows[i, 1:], rows[j, 1:]).tolist()
    table = {
        f"{els[x]}*{els[y]}": tuple(g) for x, y, g in zip(i.tolist(), j.tolist(), composites)
    }
    emit_summary(
        args,
        {"disc": -D, "h2": len(els), "classes": els, "composition": table},
        args.out,
    )
    return EXIT_OK


def cmd_family(args) -> int:
    f = parse_quadratic(args.form)
    if args.ibound < 0:
        raise ConfigError(f"--ibound must be non-negative, got {args.ibound}")
    rows = []
    primitive_points = 0

    def visit(A, B, coeffs, irreducible):
        # one point of each pair {P, -P}: the member at -P is -F, with the
        # content, I and verdict of F
        nonlocal primitive_points
        primitive_points += 2 * (math.gcd(*coeffs) == 1)
        if args.csv:
            a4, a3, a2, a1, a0 = coeffs
            I = 12 * a4 * a0 - 3 * a3 * a1 + a2 * a2
            rows.append([A, B, *coeffs, I, irreducible])
            rows.append([-A, -B, *(-x for x in coeffs), I, irreducible])

    fc = counting.count_family(f, counting.family_points(f, args.ibound), visit)
    if args.csv:
        assert sum(row[-1] for row in rows) == fc.irreducible_points, (f, args.ibound)
        rows.sort()  # by (A, B), which no two rows share
        with open(args.csv, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["A", "B", "a4", "a3", "a2", "a1", "a0", "I", "irreducible"])
            w.writerows(rows)
    emit_summary(
        args,
        {
            "form": f.coeffs(),
            "ibound": args.ibound,
            "points": fc.points,
            "irreducible_points": fc.irreducible_points,
            "primitive_points": primitive_points,
            "irreducible_orbits": fc.irreducible_orbits,
        },
        args.out,
    )
    return EXIT_OK


def cmd_count(args) -> int:
    lad = counting.ladder_report(
        "N" if args.command == "count-n" else "M",
        parse_ladder(args.ladder),
        counting.HeightPolicy(args.policy),
        args.threads,
    )
    if args.csv:
        counting.write_count_csv(args.csv, lad.reports)
    emit_summary(args, counting.ladder_summary_json(lad), args.out)
    return EXIT_OK


def cmd_verify(args) -> int:
    """Run one suite.  --seed goes to every suite that takes a seed; --xmax
    belongs to oracle-equivalence and --trials to identities alone, both at
    least 1, and either given to another suite is a configuration error."""
    for flag, value, owner in (
        ("--xmax", args.xmax, "oracle-equivalence"),
        ("--trials", args.trials, "identities"),
    ):
        if value is not None and args.suite != owner:
            raise ConfigError(f"{flag} applies only to the {owner} suite, not {args.suite}")
    kwargs = {}
    if args.xmax is not None:
        if args.xmax < 1:
            raise ConfigError(f"--xmax must be positive, got {args.xmax}")
        xs = tuple(x for x in (2000, 10000, 20000) if x <= args.xmax)
        kwargs["xs"] = xs or (args.xmax,)
    if args.trials is not None:
        if args.trials < 1:
            raise ConfigError(f"--trials must be positive, got {args.trials}")
        kwargs["trials"] = args.trials
    if "seed" in inspect.signature(verify.SUITES[args.suite]).parameters:
        kwargs["seed"] = args.seed
    res = verify.run_suite(args.suite, **kwargs)
    payload = {
        "suite": res.name,
        "passed": res.passed,
        "checks": res.checks,
        "failures": res.failures[:50],
        "findings": res.findings[:50],
        "stats": res.stats,
    }
    emit_summary(args, payload, args.out)
    print(res.summary(), file=sys.stderr)
    return EXIT_OK if res.passed else EXIT_VERIFY_FAILED


def cmd_audit_constants(args) -> int:
    ladder = parse_ladder(args.ladder)
    res = verify.suite_constants(
        ladder=tuple(ladder), audit_ladder=tuple(ladder[-3:])
    )
    payload = {
        "suite": res.name,
        "passed": res.passed,
        "failures": res.failures[:50],
        "findings": res.findings[:50],
        "stats": res.stats,
    }
    emit_summary(args, payload, args.out)
    return EXIT_OK if res.passed else EXIT_VERIFY_FAILED


class _Parser(argparse.ArgumentParser):
    """An argument parser that reads a comma-separated integer list with a
    leading minus, such as the form -1,0,0,0,1, as a value, as it reads a
    negative number, not as an unknown option."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = re.compile(r"^-\d+$|^-\d*\.\d+$|^-\d+(,-?\d+)+$")


def _global_options(**defaults) -> argparse.ArgumentParser:
    """The options every command takes, on either side of its name.

    Only the top-level parser holds their real defaults.  argparse copies
    whatever a subparser stores, defaults included, over what the top-level
    parser stored, so the subcommands take the same options with suppressed
    defaults; a default there would reset an option given before the
    subcommand.
    """
    p = argparse.ArgumentParser(add_help=False, argument_default=argparse.SUPPRESS)
    p.add_argument("--config", help="file of 'key = value' option defaults")
    p.add_argument("--seed", type=int)
    p.add_argument("--threads", type=int)
    p.add_argument("--out", help="write the JSON summary here instead of stdout")
    p.set_defaults(**defaults)
    return p


def _env_threads() -> int:
    text = os.environ.get("JZERO_THREADS", "1")
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"JZERO_THREADS must be an integer, got {text!r}")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="jzero",
        description="Enumerate, classify and count GL2(Z)-orbits of integral "
        "binary quartic forms with vanishing J-invariant.",
        parents=[
            _global_options(config=None, seed=20260809, threads=_env_threads(), out=None)
        ],
    )
    sub = ap.add_subparsers(dest="command", required=True)
    common = _global_options()

    def add(name, help):
        return sub.add_parser(name, help=help, parents=[common])

    p = add("invariants", "I, J, disc and Hessian data of a quartic")
    p.add_argument("form")
    p.set_defaults(func=cmd_invariants)

    p = add("reduce", "Gauss-reduce a positive definite quadratic")
    p.add_argument("form")
    p.set_defaults(func=cmd_reduce)

    p = add("classgroup", "class group of discriminant -D")
    p.add_argument("D", type=int)
    p.set_defaults(func=cmd_classgroup)

    p = add("family", "enumerate one family inside the I-bound")
    p.add_argument("form")
    p.add_argument("--ibound", type=int, required=True)
    p.add_argument("--csv", help="write per-point CSV here")
    p.set_defaults(func=cmd_family)

    for name in ("count-n", "count-m"):
        p = add(name, f"orbit counts over an X ladder ({name})")
        p.add_argument("--ladder", required=True, help="comma separated X values")
        p.add_argument("--policy", choices=["disc", "absI"], default="disc")
        p.add_argument("--csv", help="write X,D,points,orbits CSV here")
        p.set_defaults(func=cmd_count)

    p = add("verify", "run a named verification suite")
    p.add_argument(
        "suite",
        choices=sorted(verify.SUITES),
    )
    p.add_argument("--xmax", type=int, help="cap the oracle-equivalence ladder")
    p.add_argument("--trials", type=int, help="the identities suite's trial count")
    p.set_defaults(func=cmd_verify)

    p = add("audit-constants", "asymptotic constants over a ladder")
    p.add_argument("--ladder", required=True)
    p.set_defaults(func=cmd_audit_constants)
    return ap


def _config_path(argv) -> str | None:
    """Find --config before the full parse, which needs its values."""
    pre = argparse.ArgumentParser(prog="jzero", add_help=False)
    pre.add_argument("--config")
    return pre.parse_known_args(argv)[0].config


def main(argv=None) -> int:
    try:
        ap = build_parser()
        path = _config_path(argv)
        cfg = load_config_file(path) if path else {}
        apply_config(ap, cfg)
        args = ap.parse_args(argv)
        check_config_keys(ap, cfg, args.command)
        counting.check_workers(args.threads)
        for path in (args.out, getattr(args, "csv", None)):
            if path:
                check_output_path(path)
        return args.func(args)
    except ConfigError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR
    except (MemoryError, RecursionError) as e:
        print(f"resource exhaustion: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ValueError as e:
        print(f"configuration error: {e}", file=sys.stderr)
        return EXIT_CONFIG_ERROR


if __name__ == "__main__":
    sys.exit(main())
