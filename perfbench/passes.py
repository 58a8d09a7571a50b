"""The timed pass of each workload, run inside a fresh interpreter.

``prepare`` turns the benchmark's doubled spins into plain spin values
(ints and Fractions, or CLI text); ``run`` is the timed region: it builds
the program's input objects, calls the public API and keeps every result;
``serialize`` turns the results into JSON after the clock has stopped.
Program functions are looked up on the package at call time, so the
tracer's wrappers are seen.
"""

from __future__ import annotations

import contextlib
import io
import os
from fractions import Fraction

import sixj

from perfbench import inputs


def _plain(twice: int):
    return twice // 2 if twice % 2 == 0 else Fraction(twice, 2)


def prepare(workload: str, items: list, workdir: str) -> list:
    if workload == "grid_small":
        return [(kind, tuple(map(_plain, d))) for kind, d in items]
    if workload == "large_k":
        return [(kind, tuple(map(_plain, d)), k) for kind, d, k in items]
    if workload == "asym_grid":
        return [(tuple(map(_plain, d)), is_alpha) for d, is_alpha in items]
    if workload == "scan_cli":
        k_from, k_to, k_step = map(str, inputs.SCAN_K)
        out = []
        for kind, d in items:
            spins = [inputs.spin_text(x) for x in d]
            path = os.path.join(workdir, f"scan-{kind}-{'-'.join(map(str, d))}.csv")
            scan_argv = ["scan", "--kind", kind, "--k-from", k_from, "--k-to", k_to,
                         "--k-step", k_step, *spins, "--out", path]
            out.append((scan_argv, ["slope", path], path))
        return out
    raise ValueError(f"unknown workload {workload!r}")


def run(workload: str, prepared: list) -> tuple[list, list]:
    """The timed region: (results, errors); a failed operation leaves None."""
    return _RUNNERS[workload](prepared)


def _run_grid(prepared):
    of = sixj.SpinSextuple.of
    evaluators = {"su2": sixj.sixj_exact, "super": sixj.sixj_super_exact}
    results, errors = [], []
    for kind, spins in prepared:
        try:
            results.append(evaluators[kind](of(*spins)))
        except Exception as exc:  # counted as a failed operation
            results.append(None)
            errors.append(f"{kind} {spins}: {exc!r}")
    return results, errors


def _run_large_k(prepared):
    results, errors = [], []
    for kind, spins, k in prepared:
        try:
            base = sixj.SpinSextuple.of(*spins)
            if kind == "su2":
                value = sixj.sixj_exact(base.scaled(k))
                asym = sixj.asym_standard(base, k)
            else:
                value = sixj.sixj_super_exact(base.scaled(k))
                asym = sixj.asym_for_scaled(base, k)
            results.append((value, value.to_scaled(), asym))
        except Exception as exc:  # counted as a failed operation
            results.append(None)
            errors.append(f"{kind} {spins} k={k}: {exc!r}")
    return results, errors


def _run_scan_cli(prepared):
    import sixj.cli as cli  # already imported during set-up by the worker
    results, errors = [], []
    for scan_argv, slope_argv, _path in prepared:
        for argv in (scan_argv, slope_argv):
            out = io.StringIO()
            try:
                with contextlib.redirect_stdout(out):
                    code = cli.cli_main(argv)
            except Exception as exc:  # counted as a failed operation
                code, out = None, None
                errors.append(f"{' '.join(argv)}: {exc!r}")
            else:
                if code != 0:
                    errors.append(f"{' '.join(argv)}: exit code {code}")
            results.append((code, out.getvalue() if out else None))
    return results, errors


def _run_asym_grid(prepared):
    of = sixj.SpinSextuple.of
    results, errors = [], []
    for spins, is_alpha in prepared:
        try:
            s = of(*spins)
            geo = sixj.tet_from_spins(s)
            disc = sixj.discriminant_check(s)
            odd = sixj.asym_for_scaled(s, inputs.ASYM_K_ODD, geo)
            even = sixj.asym_for_scaled(s, inputs.ASYM_K_EVEN, geo)
            std = sixj.asym_standard(s, inputs.ASYM_K_ODD, geo) if is_alpha else None
            results.append((geo, disc, odd, even, std))
        except Exception as exc:  # counted as a failed operation
            results.append(None)
            errors.append(f"{spins}: {exc!r}")
    return results, errors


_RUNNERS = {
    "grid_small": _run_grid,
    "large_k": _run_large_k,
    "scan_cli": _run_scan_cli,
    "asym_grid": _run_asym_grid,
}


def operations(workload: str, prepared: list) -> int:
    """Operations one pass attempts: one per evaluation, or per CLI call."""
    return 2 * len(prepared) if workload == "scan_cli" else len(prepared)


def _fraction(q: Fraction) -> list:
    return [q.numerator, q.denominator]


def _asym(res) -> list:
    return [res.amplitude, res.angle, res.value, res.parity_used]


def serialize(workload: str, prepared: list, results: list) -> list:
    """JSON form of the results, made after the timed region."""
    if workload == "grid_small":
        return [
            None if v is None else [*_fraction(v.coeff), *_fraction(v.radicand)]
            for v in results
        ]
    if workload == "large_k":
        return [
            None if r is None else {
                "coeff": _fraction(r[0].coeff),
                "radicand": _fraction(r[0].radicand),
                "scaled": [r[1].mantissa, r[1].exp2],
                "asym": _asym(r[2]),
            }
            for r in results
        ]
    if workload == "asym_grid":
        return [
            None if r is None else {
                "volume": r[0].volume,
                "theta_ext": list(r[0].theta_ext),
                "disc": list(r[1]),
                "odd": _asym(r[2]),
                "even": _asym(r[3]),
                "standard": None if r[4] is None else _asym(r[4]),
            }
            for r in results
        ]
    # scan_cli: the CSV as written and as the program reads it back
    out = []
    for i, (_scan_argv, _slope_argv, path) in enumerate(prepared):
        (scan_code, _), (slope_code, slope_text) = results[2 * i], results[2 * i + 1]
        try:
            with open(path, encoding="utf-8", newline="") as fh:
                text = fh.read()
            with open(path, encoding="utf-8") as fh:
                read_back = [_record_row(r) for r in sixj.read_csv(fh)]
        except (OSError, ValueError):
            text, read_back = None, None
        out.append({
            "codes": [scan_code, slope_code],
            "csv": text,
            "read_back": read_back,
            "slope_out": slope_text,
        })
    return out


def _record_row(r) -> list:
    return [r.k, r.parity, r.exact.mantissa, r.exact.exp2, r.exact.to_float(),
            r.asym, r.abs_err, r.amplitude, r.angle]
