"""Command-line front end: generate, search, verify, and batch experiments.

Exit codes follow one contract everywhere: 0 when the requested object was
found/verified, 1 on input errors, 2 when the search honestly came up empty
(Neither).  All randomness flows through explicit seeds (``--seed`` or the
``OPSYS_SEED`` environment variable), so identical invocations produce
byte-identical outputs.
"""

from __future__ import annotations

import csv
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path

import click

from . import serialize
from .constructions import (
    anticlique_lowdim,
    diagonal_system,
    graph_operator_system,
    rowcolumn_system,
    two_clique,
)
from .errors import SearchBudgetError
from .linalg import Projection, Tolerance
from .ramsey import SearchParams, diagonal_route, find_clique_or_anticlique
from .systems import (
    Kind,
    certify,
    derive_rng,
    derive_seed,
    random_diagonal_system,
    random_system,
)

_SEED_OPT = dict(type=int, default=0, envvar="OPSYS_SEED", show_default=True)


@click.group()
@click.option("--tol-rank", type=float, default=None, help="Relative SVD cutoff for search-side rank decisions.")
@click.option("--tol-cert", type=float, default=None, help="Relative SVD cutoff for certification.")
@click.pass_context
def cli(ctx: click.Context, tol_rank: float | None, tol_cert: float | None) -> None:
    """Quantum clique/anticlique toolkit for operator systems."""
    base = Tolerance()
    try:
        ctx.obj = Tolerance(
            base.rank_rel if tol_rank is None else tol_rank,
            base.cert_rel if tol_cert is None else tol_cert,
        )
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc


def _load(path: str, parser, what: str):
    try:
        return parser(serialize.read_json(path))
    except (OSError, ValueError, KeyError, TypeError) as exc:
        raise click.ClickException(f"cannot read {what} from {path}: {exc}") from exc


def _emit(payload: str, out: str | None, note: str) -> None:
    if out is None:
        click.echo(payload, nl=False)
    else:
        Path(out).write_text(payload, encoding="utf-8")
        click.echo(note)


@cli.command("gen")
@click.option("--kind", "kind_", type=click.Choice(["random", "diagonal", "graph", "rowcolumn"]), required=True)
@click.option("--n", type=int, default=None, help="Ambient dimension.")
@click.option("--dim", type=int, default=None, help="System dimension (--kind random only).")
@click.option("--graph-file", type=click.Path(), default=None, help="SimpleGraph JSON (--kind graph only).")
@click.option("--seed", **_SEED_OPT)
@click.option("--out", type=click.Path(), default=None, help="Output path (stdout if omitted).")
def cmd_gen(kind_: str, n: int | None, dim: int | None, graph_file: str | None, seed: int, out: str | None) -> None:
    """Write an operator-system JSON instance."""
    if kind_ != "graph" and graph_file is not None:
        raise click.UsageError("--graph-file only applies to --kind graph")
    if kind_ != "random" and dim is not None:
        raise click.UsageError("--dim only applies to --kind random")
    if kind_ == "graph":
        if graph_file is None:
            raise click.UsageError("--kind graph requires --graph-file")
        if n is not None:
            raise click.UsageError("--kind graph takes its dimension from the graph file")
        v = graph_operator_system(_load(graph_file, serialize.graph_from_json, "graph"))
    else:
        if n is None or n < 1:
            raise click.UsageError("--n is required and must be positive")
        if kind_ == "random":
            if dim is None:
                raise click.UsageError("--kind random requires --dim")
            try:
                v = random_system(n, dim, seed)
            except ValueError as exc:
                raise click.UsageError(str(exc)) from exc
        elif kind_ == "diagonal":
            v = diagonal_system(n)
        else:
            v = rowcolumn_system(n)
    payload = serialize.dumps(serialize.system_to_json(v))
    _emit(payload, out, f"wrote {kind_} system (n={v.n}, dim={v.dim}) to {out}")


@cli.command("find")
@click.argument("input_path", type=click.Path())
@click.option("--k", type=int, required=True)
@click.option("--mode", type=click.Choice(["auto", "clique", "anticlique", "two-clique"]), default="auto", show_default=True)
@click.option("--seed", **_SEED_OPT)
@click.option("--orbit-threshold", type=int, default=None, help="Override the phase-1 orbit cutoff.")
@click.option("--phase1-steps", type=int, default=None)
@click.option("--phase2-steps", type=int, default=None)
@click.option("--retry-budget", type=int, default=None)
@click.option("--out", type=click.Path(), default=None, help="Certificate path (stdout if omitted).")
@click.pass_context
def cmd_find(
    ctx: click.Context,
    input_path: str,
    k: int,
    mode: str,
    seed: int,
    orbit_threshold: int | None,
    phase1_steps: int | None,
    phase2_steps: int | None,
    retry_budget: int | None,
    out: str | None,
) -> None:
    """Search INPUT_PATH for a quantum k-clique or k-anticlique."""
    tol: Tolerance = ctx.obj
    v = _load(input_path, serialize.system_from_json, "operator system")
    if not 1 <= k <= v.n:
        raise click.UsageError(f"need 1 <= k <= {v.n}, got k = {k}")
    overrides = {"orbit_threshold": orbit_threshold, "phase1_steps": phase1_steps,
                 "phase2_steps": phase2_steps, "retry_budget": retry_budget}
    try:
        params = replace(SearchParams.for_k(k, seed=seed),
                         **{name: x for name, x in overrides.items() if x is not None})
    except ValueError as exc:
        raise click.UsageError(str(exc)) from exc

    if mode == "two-clique":
        if k != 2:
            raise click.UsageError("--mode two-clique requires --k 2")
        if v.dim < 4:
            raise click.UsageError(f"--mode two-clique requires dim >= 4, input has dim {v.dim}")
        try:
            cert = two_clique(v, seed=seed, tol=tol)
        except SearchBudgetError as exc:
            cert = certify(
                v, Projection.coordinate(v.n, range(2)), 2, tol,
                seed=seed, trace=(*exc.trace, str(exc)),
            )
    elif mode == "anticlique" and k >= 2 and v.dim * (k - 1) <= v.n - k:
        try:
            cert = anticlique_lowdim(v, k, seed=seed, tol=tol)
        except SearchBudgetError:
            cert = find_clique_or_anticlique(v, k, params, tol)
    else:
        cert = find_clique_or_anticlique(v, k, params, tol)

    payload = serialize.dumps(serialize.certificate_to_json(cert))
    _emit(payload, out, f"kind={cert.kind.value} compressed_dim={cert.compressed_dim} -> {out}")
    wanted = {
        "auto": (Kind.CLIQUE, Kind.ANTICLIQUE),
        "clique": (Kind.CLIQUE,),
        "anticlique": (Kind.ANTICLIQUE,),
        "two-clique": (Kind.CLIQUE,),
    }[mode]
    if cert.kind not in wanted:
        ctx.exit(2)


@cli.command("verify")
@click.argument("input_path", type=click.Path())
@click.argument("projection_path", type=click.Path())
@click.option("--k", type=int, default=None, help="Expected rank (defaults to the frame's rank).")
@click.pass_context
def cmd_verify(ctx: click.Context, input_path: str, projection_path: str, k: int | None) -> None:
    """Re-certify a projection (bare frame or certificate file) against a system."""
    tol: Tolerance = ctx.obj
    v = _load(input_path, serialize.system_from_json, "operator system")
    p = _load(projection_path, serialize.projection_from_json, "projection")
    try:
        cert = certify(v, p, p.k if k is None else k, tol)
    except ValueError as exc:
        raise click.ClickException(str(exc)) from exc
    click.echo(f"kind={cert.kind.value} compressed_dim={cert.compressed_dim}")
    if cert.kind is Kind.NEITHER:
        ctx.exit(2)


# ---------------------------------------------------------------------------
# experiments
# ---------------------------------------------------------------------------

_CSV_COLUMNS = ["n", "k", "dim", "seed", "outcome", "compressed_dim", "wall_time_ms"]


def _write_report(path: str, rows: list[list]) -> None:
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(_CSV_COLUMNS)
        writer.writerows(rows)


def _summary(rows: list[list]) -> str:
    counts = Counter(r[4] for r in rows)
    found = counts.get("clique", 0) + counts.get("anticlique", 0)
    parts = ", ".join(f"{counts[key]} {key}" for key in ("clique", "anticlique", "neither") if counts.get(key))
    rate = 100.0 * found / max(1, len(rows))
    return f"{len(rows)} rows: {parts} ({rate:.1f}% found)"


def _parse_range(text: str) -> range:
    try:
        if ":" in text:
            lo_s, hi_s = text.split(":", 1)
            lo, hi = int(lo_s), int(hi_s)
        else:
            lo = hi = int(text)
    except ValueError as exc:
        raise click.UsageError(f"bad range {text!r} (expected N or LO:HI)") from exc
    if lo < 1 or hi < lo:
        raise click.UsageError(f"bad range {text!r}")
    return range(lo, hi + 1)


@cli.group()
def experiment() -> None:
    """Batch experiments; per-sample seeds are seed + row index."""


@experiment.command("dichotomy-scan")
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, default=50, show_default=True)
@click.option("--dim", type=int, default=None, help="Fix the system dimension (random in 1..n^2 otherwise).")
@click.option("--seed", **_SEED_OPT)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def cmd_dichotomy_scan(ctx: click.Context, k: int, n: int, samples: int, dim: int | None, seed: int, out: str) -> None:
    """Full dichotomy search over random systems; tabulate outcomes."""
    tol: Tolerance = ctx.obj
    rows: list[list] = []
    for j in range(samples):
        row_seed = seed + j
        d = dim if dim is not None else int(derive_rng(row_seed, 0).integers(1, n * n + 1))
        v = random_system(n, d, derive_seed(row_seed, 1))
        start = time.perf_counter()
        cert = find_clique_or_anticlique(v, k, SearchParams.for_k(k, seed=row_seed), tol)
        ms = (time.perf_counter() - start) * 1e3
        rows.append([n, k, d, row_seed, cert.kind.value, cert.compressed_dim, f"{ms:.3f}"])
    _write_report(out, rows)
    click.echo(_summary(rows))


@experiment.command("two-clique-rate")
@click.option("--n", "n_range", required=True, help="Ambient dimension or range LO:HI.")
@click.option("--samples", type=int, default=100, show_default=True, help="Samples per ambient dimension.")
@click.option("--seed", **_SEED_OPT)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def cmd_two_clique_rate(ctx: click.Context, n_range: str, samples: int, seed: int, out: str) -> None:
    """Success rate of the guaranteed 2-clique on random dim >= 4 systems."""
    tol: Tolerance = ctx.obj
    rows: list[list] = []
    idx = 0
    for n in _parse_range(n_range):
        if n * n < 4:
            raise click.UsageError("need n >= 2 so that dim >= 4 systems exist")
        for _ in range(samples):
            row_seed = seed + idx
            idx += 1
            d = int(derive_rng(row_seed, 0).integers(4, n * n + 1))
            v = random_system(n, d, derive_seed(row_seed, 1))
            start = time.perf_counter()
            try:
                cert = two_clique(v, seed=row_seed, tol=tol)
                outcome, cdim = cert.kind.value, cert.compressed_dim
            except SearchBudgetError:
                outcome, cdim = Kind.NEITHER.value, 0
            ms = (time.perf_counter() - start) * 1e3
            rows.append([n, 2, d, row_seed, outcome, cdim, f"{ms:.3f}"])
    _write_report(out, rows)
    click.echo(_summary(rows))


@experiment.command("diagonal-trichotomy")
@click.option("--k", type=int, required=True)
@click.option("--n", type=int, required=True)
@click.option("--samples", type=int, default=200, show_default=True)
@click.option("--seed", **_SEED_OPT)
@click.option("--out", type=click.Path(), required=True)
@click.pass_context
def cmd_diagonal_trichotomy(ctx: click.Context, k: int, n: int, samples: int, seed: int, out: str) -> None:
    """Clique-or-anticlique rate of the diagonal route on random diagonal systems."""
    tol: Tolerance = ctx.obj
    rows: list[list] = []
    for j in range(samples):
        row_seed = seed + j
        d = int(derive_rng(row_seed, 0).integers(1, n + 1))
        v = random_diagonal_system(n, d, derive_seed(row_seed, 1))
        start = time.perf_counter()
        cert = diagonal_route(v, k, tol, seed=row_seed)
        ms = (time.perf_counter() - start) * 1e3
        rows.append([n, k, d, row_seed, cert.kind.value, cert.compressed_dim, f"{ms:.3f}"])
    _write_report(out, rows)
    click.echo(_summary(rows))


def main(argv: list[str] | None = None) -> int:
    """Entry point with the 0/1/2 exit-code contract."""
    try:
        rv = cli.main(args=argv, standalone_mode=False)
    except click.exceptions.Exit as exc:  # pragma: no cover - version-dependent path
        return int(exc.exit_code)
    except click.ClickException as exc:
        exc.show()
        return 1
    except click.exceptions.Abort:
        click.echo("aborted", err=True)
        return 1
    return int(rv) if isinstance(rv, int) else 0
