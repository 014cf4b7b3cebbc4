"""Command line: parameter sweeps to CSV/JSON and the verification gate.

Subcommands:
    qsatom xsection --config cfg.json [--format csv|json] [--out f]
    qsatom spectrum --config cfg.json [...]
    qsatom verify   [--config cfg.json] [...]

Sweeps are columnar: ``run_*_sweep`` return (names, axes, columns), the
sorted sweep lists and one 1-D array per quantity over their product
(xsection in one numpy pass, spectrum per eta2 value), computed and
checked before the output is opened, with the bytes of per-point floats:
``float_power`` squares and ``hypot`` moduli round as CPython's ``**``
and ``abs``.  The record builder spells fixed blocks of rows, each axis
value once, from 17 digits that an exact float64 double-word product
gives to 2^-47, split by constant divisors and moved into place 16 at a
time: CSV as ``"%.16e"``, JSON as ``repr``'s fewest digits that read
back, laid out by byte masks on shifted 64-bit lanes.  printf or
``json.dumps`` spells a non-finite value and one within 2^-30 of a
rounding tie; the bytes are the same on every IEEE-754 platform.
``--threads N`` is accepted and ignored.  Sweeps import only
``model``, ``xsection`` and ``spectrum``; ``verify`` loads ``oracle``.

Exit codes: 0 success, 1 numerical or check failure, 2 config error or
unwritable output.  All numbers are reduced units.
"""

from __future__ import annotations

import argparse
import functools
import itertools
import json
import math
import sys
from dataclasses import dataclass, fields

import numpy as np
import scipy  # noqa: F401  kept only for the benchmark worker's version record

from . import spectrum, xsection
from .model import DriveConfig, PhaseShiftTable, ScatteringScalars, scalars_from_phase_shifts

SCHEMA = "qsatom v1"

_SCALAR_KEYS = tuple(f.name for f in fields(ScatteringScalars))

# printf or repr decides where a fraction lies this near a tie: 2^17 times
# its error bound of 2^-47 (see _scaled), and 2^-29 of random values
_TIE_WINDOW = 2.0**-30
_BLOCK_ROWS = 1024  # rows per record block: memory is flat in the grid size


class ConfigError(ValueError):
    """Invalid run configuration (maps to exit code 2)."""


@dataclass
class RunConfig:
    scalars: ScatteringScalars       # derived from the table in phase_shifts mode
    table: PhaseShiftTable | None
    eta2: list[float]
    ztilde: list[float]
    x_grid: list[float]
    gammatilde: float
    mollow_reference: bool


def _number(raw, key) -> float:
    """``float(raw)``, refusing booleans (``float(True)`` is 1.0)."""
    try:
        if not isinstance(raw, bool):
            return float(raw)
    except (TypeError, ValueError, OverflowError):
        pass
    raise ConfigError(f"'{key}' must be a number, not {raw!r}")


def _finite_list(raw, key) -> list[float]:
    if raw is None:
        return []
    if not isinstance(raw, list):
        raise ConfigError(f"'{key}' must be a list of numbers")
    vals = [_number(v, key) for v in raw]
    if not all(math.isfinite(v) for v in vals):
        raise ConfigError(f"'{key}' must contain only finite numbers")
    return vals


def parse_config(doc: dict) -> RunConfig:
    if not isinstance(doc, dict):
        raise ConfigError("config must be a JSON object")
    mode = doc.get("mode")
    if mode not in ("scalars", "phase_shifts"):
        raise ConfigError("'mode' must be 'scalars' or 'phase_shifts'")
    has_scalars = "scalars" in doc
    has_table = "phase_shifts" in doc
    if has_scalars == has_table:
        raise ConfigError("exactly one of 'scalars' / 'phase_shifts' must be present")
    if (mode == "scalars") != has_scalars:
        raise ConfigError(f"mode '{mode}' does not match the supplied parameter block")

    table = None
    if has_scalars:
        block = doc["scalars"]
        missing = [k for k in _SCALAR_KEYS if not isinstance(block, dict) or k not in block]
        if missing:
            raise ConfigError(f"scalars block is missing {missing}")
        try:
            scalars = ScatteringScalars(**{k: _number(block[k], k) for k in _SCALAR_KEYS})
        except ValueError as exc:
            raise ConfigError(f"invalid scalars: {exc}") from exc
    else:
        block = doc["phase_shifts"]
        try:
            table = PhaseShiftTable(*(_finite_list(block[k], k)
                                      for k in ("delta_plus", "delta_minus")))
            scalars = scalars_from_phase_shifts(table)
        except (KeyError, TypeError, ValueError) as exc:
            raise ConfigError(f"invalid phase_shifts block: {exc}") from exc

    gammatilde = _number(doc.get("gammatilde", 0.0), "gammatilde")
    if not math.isfinite(gammatilde) or gammatilde < 0:
        raise ConfigError("'gammatilde' must be finite and nonnegative")
    eta2 = _finite_list(doc.get("eta2"), "eta2")
    if any(v < 0 for v in eta2):
        raise ConfigError("'eta2' is an intensity and must be nonnegative")
    mollow_reference = doc.get("mollow_reference", False)
    if not isinstance(mollow_reference, bool):
        raise ConfigError("'mollow_reference' must be true or false")

    return RunConfig(scalars, table, eta2, _finite_list(doc.get("ztilde"), "ztilde"),
                     _finite_list(doc.get("x_grid"), "x_grid"), gammatilde, mollow_reference)


def load_config(path: str) -> RunConfig:
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read config: {exc}") from exc
    except (ValueError, RecursionError) as exc:  # bad JSON, too many digits, too deep
        raise ConfigError(f"config is not valid JSON: {exc}") from exc
    return parse_config(doc)


def _axes(cfg: RunConfig, *keys) -> list[list[float]]:
    """The sorted sweep lists named by ``keys``; the grid is their product."""
    for key in keys:
        if not getattr(cfg, key):
            raise ConfigError(f"'{key}' sweep list must be non-empty")
    return [sorted(getattr(cfg, key)) for key in keys]


def run_xsection_sweep(cfg: RunConfig):
    """(names, axes, columns) of sigma_tot, sigma_el, sigma_inel over the
    (eta2, ztilde) grid; see :func:`run_spectrum_sweep`."""
    axes = e2s, zts = _axes(cfg, "eta2", "ztilde")
    t = xsection.cross_section_grid(cfg.scalars, np.array(e2s)[:, None], np.array(zts))
    return (["eta2", "ztilde", "sigma_tot", "sigma_el", "sigma_inel"], axes,
            [t.total.ravel(), t.elastic.ravel(), t.inelastic.ravel()])


def run_spectrum_sweep(cfg: RunConfig):
    """(names, axes, columns) of Sigma_tot, Sigma_inel,
    Sigma_el_lorentzian (plus the no-direct-scattering reference when
    requested): the sorted eta2, ztilde and x lists, and one column per
    quantity over their product (x fastest), each checked finite."""
    axes = e2s, zts, x_grid = _axes(cfg, "eta2", "ztilde", "x_grid")
    if cfg.gammatilde <= 0:
        raise ConfigError("spectrum sweeps need gammatilde > 0")
    sc, xs, zt = cfg.scalars, np.array(x_grid), np.array(zts)[:, None]
    gt = np.full_like(zt, cfg.gammatilde)  # a column: an overflow is inf, refused below
    names = ["eta2", "ztilde", "x", "Sigma_tot", "Sigma_inel", "Sigma_el_lorentzian"]
    if cfg.mollow_reference:
        names.append("Sigma_tot_mollow")
    out = np.empty((len(names) - 3, len(e2s), len(zts), len(xs)))
    with np.errstate(all="ignore"):  # overflow shows as inf/nan, refused below
        for e2, block in zip(e2s, out.swapaxes(0, 1)):
            dc = DriveConfig(np.full_like(zt, math.sqrt(e2)), zt, gt)
            inel = spectrum.sigma_inel_x(sc, dc, xs)
            el = xsection.sigma_el(sc, dc)
            lor = spectrum.elastic_lorentzian(el, gt, xs)
            block[:3] = lor + inel, inel, lor
            if cfg.mollow_reference:
                m_el = xsection.mollow_xsections(zt, dc.eta).elastic
                block[3] = (spectrum.mollow_inel_x(zt, dc.eta, gt, xs)
                            + spectrum.elastic_lorentzian(m_el, gt, xs))
            xsection._refuse_non_finite(np.isfinite(block).all(axis=(0, 2)), e2, zts)
    return names, axes, list(out.reshape(len(out), -1))


def run_verify(cfg: RunConfig | None):
    """Full oracle and invariant suite; returns (checks, exit_code).  A config's
    table or scalars is checked at its two smallest eta2, each at its smallest
    ztilde and its gammatilde (0 read as 0.6); with an empty list, the defaults."""
    from . import oracle
    source = (cfg.table or cfg.scalars) if cfg else oracle.DEFAULT_TABLE
    drives = oracle.DEFAULT_DRIVES
    if cfg and cfg.eta2 and cfg.ztilde:
        gt = cfg.gammatilde if cfg.gammatilde > 0 else 0.6
        drives = tuple(DriveConfig(math.sqrt(e2), zt, gt)
                       for e2 in sorted(cfg.eta2)[:2] for zt in sorted(cfg.ztilde)[:1])
    checks = oracle.run_verification(source, drives)
    code = 0 if all(c.passed for c in checks) else 1
    return checks, code


def _power_of_ten(p):
    """10^p as (h, l, s): h + l = 10^p 2^-s to 2^-107, 1 <= h < 2, from exact integers."""
    s = math.floor(p * math.log2(10.0))
    num, den = 10**max(p, 0) << max(-s, 0), 10**max(-p, 0) << max(s, 0)
    h = num / den  # int / int rounds correctly
    return h, ((num << 52) - int(h * 2**52) * den) / den / 2**52, s


@functools.cache
def _spell_tables():
    """The speller's tables, built on first use.  By e + 1073, for |v| = m 2^e
    (``frexp``): the least double at or above 10^(k0 + 1) 2^-e, with
    k0 = floor(log10 2^(e - 1)).  By i = 2 (e + 1073) + (m at or above it):
    k = floor(log10 |v|) and T = 2^e 10^(16 - k) as hi + lo.  By k + 400: k
    as ``"%+03d"`` NUL-padded to 4 bytes; the digits of 0..9999 in 4 bytes."""
    h, l, s = map(np.array, zip(*map(_power_of_ten, range(-323, 341))))
    e = np.arange(-1073, 1025)
    k0 = np.floor((e - 1) * math.log10(2.0)).astype(np.int64)  # never 4.5e-4 from a tie
    up = k0 + 324
    thr = np.ldexp(np.where(l[up] > 0, np.nextafter(h[up], 2.0), h[up]), s[up] - e)
    k, e = np.stack([k0, k0 + 1], 1).ravel(), np.repeat(e, 2)
    p = 339 - k  # 10^(16 - k) times 2^e is exact
    hi, lo = np.ldexp(h[p], s[p] + e), np.ldexp(l[p], s[p] + e)
    d = np.arange(48, 58, dtype=np.uint8)  # built in numpy: no heap of small strings
    quads = np.stack(np.meshgrid(d, d, d, d, indexing="ij"), -1).reshape(-1, 4)
    exps = "".join(f"{j:+03d}".rjust(4, "\0") for j in range(-400, 400)).encode()
    return (thr, k.astype(np.int16), hi, lo,
            np.frombuffer(exps, np.uint32), quads.view(np.uint32)[:, 0])


@functools.cache
def _repr_layouts():
    """By (digit count n, k + 4 in fixed notation, -4 <= k <= 15, else 20): byte
    masks A, B, C and bytes K, 3 uint64 each, that give ``repr`` NUL-padded as
    (R & A) | ((R >> 8) & B) | ((R << 32) & C) | K, from a ``"%.16e"`` record
    R (a 24-byte little-endian integer) whose "." holds its lead digit again."""
    lay = np.zeros((18, 21, 4, 24), np.uint8)
    for n, k in itertools.product(range(1, 18), range(-4, 17)):
        a, b, c, K = lay[n, k + 4]  # digit i >= 1 is byte i + 2 of R
        if k == 16:
            a[:2], a[3:n + 2], a[19:], K[2] = 255, 255, 255, ord(".") * (n > 1)
        elif k >= 0:
            a[:2], a[k + 3:max(n + 2, k + 4)], b[2:k + 2], K[k + 2] = 255, 255, 255, ord(".")
        else:  # "0." and -k - 1 zeros, NUL-padded before the digits
            a[0], c[6:n + 6], K[1:2 - k], K[2] = 255, 255, ord("0"), ord(".")
    return np.ascontiguousarray(lay.view(np.uint64).reshape(-1, 12).T)


def _split(x):
    """Veltkamp's split of x into halves of at most 26 bits each."""
    high = (big := x * (2.0**27 + 1)) - (big - x)
    return high, x - high


def _scaled(v):
    """|v| = m 2^e (``frexp``), k = floor(log10 |v|), y = |v| 10^(16 - k) in
    [1e16, 1e17) as q + f (q an int64, 0 <= f <= 1) and hi, where
    T = 2^e 10^(16 - k) = hi + lo (``_spell_tables``).  m hi is p + err
    exactly (Dekker, Numer. Math. 18, 224 (1971)), p >= 2^53 is an integer
    and r = err + m lo.  f is within 2^-47 of exact: |err| <= 8 and
    |m lo| < 16, so r and m lo round by 2^-49 and 2^-50, the tail
    m |T - hi - lo| is below 2^-50, and r - floor(r) rounds by 2^-54.
    A non-finite v is read as 0 and flagged in ``odd``."""
    thr, ks, his, los = _spell_tables()[:4]
    a = np.abs(v)
    a[odd := ~np.isfinite(a)] = 0.0
    m, e = np.frexp(a)
    i = 2 * (j := e + 1073) + (m >= thr.take(j))  # take: much faster than indexing here
    hi = his.take(i)
    (m_h, m_l), (hi_h, hi_l), p = _split(m), _split(hi), m * hi
    err = m_l * hi_l - (((p - m_h * hi_h) - m_l * hi_h) - m_h * hi_l)
    r = err + m * los.take(i)
    floor = np.floor(r)
    return a, m, e, ks.take(i), p.astype(np.int64) + floor.astype(np.int64), r - floor, hi, odd


def _divmod(x, d):
    """``np.divmod`` by a constant d, as libdivide's multiply in ``//``."""
    top = x // d
    return top, x - top * d


def _record(v, a, q, k, rec):
    """Write ``v`` with the 17 digits ``q`` (10^17 carries) at exponent ``k`` as
    ``"%.16e"`` into ``rec[..., :24]``: [sign][d][.][16 digits][e][exponent], NUL for
    a clear sign bit and before a 2-digit exponent, the 16 digits in one move; returns k."""
    exps, digits = _spell_tables()[4:]
    carry = q >= 10**17  # 10^17 at exponent k is 10^16 at k + 1
    k = np.where(a > 0, k + carry, 0)
    lead, q = _divmod(np.where(carry, 10**16, q), 10**16)
    quads = np.stack(_divmod(np.stack(_divmod(q, 10**8), -1), 10**4), -1).reshape(-1, 4)
    rec[..., 0] = np.signbit(v).view(np.uint8) * ord("-")
    rec[..., 1], rec[..., 2], rec[..., 19] = lead + ord("0"), ord("."), ord("e")
    rec[..., 3:19].view("V16")[..., 0] = digits.take(quads).view("V16").reshape(q.shape)
    rec[..., 20:24].view("V4")[..., 0] = exps.take(k + 400).view("V4")
    return k


def _spell(v, rec):
    """Spell ``v`` as ``"%.16e"`` into ``rec[..., :24]`` (see ``_record``);
    printf spells a non-finite value and a fraction within ``_TIE_WINDOW`` of 1/2."""
    a, _, _, k, q, f, _, odd = _scaled(v)
    _record(v, a, q + (f > 0.5), k, rec)
    slow = odd | (np.abs(f - 0.5) < _TIE_WINDOW)
    rec[slow, :24] = _printf("%.16e".__mod__, v[slow])


def _shortest(v, rec):
    """Spell ``v`` as ``json.dumps(v)`` into ``rec[..., :24]``, NUL-padded: the
    fewest digits that read back to v, the nearer of two (Steele & White).  In
    units 10^j of y, the neighbours of n = 17 - j digits are y's floor and
    ceiling; where neither reads back, no shorter decimal does.  ``json.dumps``
    spells a non-finite value and decides where a distance lies within
    ``_TIE_WINDOW`` of a half-gap, or of the other's."""
    flat = v.reshape(-1)
    a, m, e, k, yi, f, t, odd = _scaled(flat)
    # half-gaps in units of y: T 2^-54, or T 2^(-1075 - e) if subnormal
    hi = np.ldexp(t, np.maximum(-54, -1075 - e))
    # a power of two's lower gap is half its upper one
    lo = np.where((m == 0.5) & (a > np.finfo(float).smallest_normal), hi / 2, hi)
    win = _TIE_WINDOW + hi * 2**-50  # float64 keeps 2^-53 of a subnormal's wide gap
    # y's floor to a multiple of 10^j reads back where its remainder is below
    # lo - f, its ceiling where 10^j less the remainder is below hi + f: a
    # distance is near a half-gap only where one of these is near an integer
    c_lo, c_hi = lo - f, hi + f
    slow = odd | (np.abs(c_lo - np.rint(c_lo)) < win) | (np.abs(c_hi - np.rint(c_hi)) < win)
    c_lo[a == 0] = np.inf  # "0.0"
    # n digits and y's remainder by r = 10^(17 - n): the first pass runs on
    # every value, each later one on those that the last one shortened
    n, r, rem = np.full(a.size, 17), np.ones(a.size, np.int64), np.zeros(a.size, np.int64)
    at, y = None, yi
    for j in range(1, 17):
        rj = _divmod(y, 10**j)[1]
        ok = (rj < c_lo) | (10**j - rj < c_hi)
        at = np.flatnonzero(ok) if at is None else at[ok]
        if not at.size:
            break
        n[at], r[at], rem[at] = 17 - j, 10**j, rj[ok]
        y, c_lo, c_hi = y[ok], c_lo[ok], c_hi[ok]
    d_lo, d_hi = rem + f, (r - rem) - f
    ok_lo, ok_hi = d_lo < lo, d_hi < hi  # one reads back; if both, the nearer
    slow |= ok_lo & ok_hi & (np.abs(d_lo - d_hi) < 2 * win)
    src = np.empty((a.size, 24), np.uint8)
    k = _record(flat, a, yi - rem + (ok_hi & (~ok_lo | (d_hi < d_lo))) * r, k, src)
    src[:, 2] = src[:, 1]  # R: its "." holds the lead digit again
    lanes = src.view(np.uint64).T.copy()  # a row per lane: each op runs along a row
    right, left = lanes >> 8, lanes << 32
    right[:2] |= lanes[1:] << 56
    left[1:] |= lanes[:2] >> 32
    cls = 21 * n + np.where((k >= -4) & (k <= 15), k + 4, 20)
    A, B, C, K = _repr_layouts().take(cls, 1).reshape(4, 3, -1)
    out = ((lanes & A) | (right & B) | (left & C) | K).T.copy().view(np.uint8)
    out[slow] = _printf(json.dumps, flat[slow])
    rec[..., :24].view("V24")[..., 0] = out.view("V24").reshape(v.shape)


def _printf(num, v):
    """``num(x)`` for each x of ``v``, NUL-padded to 24 bytes: v.shape + (24,)."""
    spelled = np.array([num(x) for x in v.ravel().tolist()], "S24")
    return spelled.view(np.uint8).reshape(*v.shape, 24)


def _write_records(out, axes, columns, spell, seps, trailer="", drop=0) -> None:
    """Write the rows ``_BLOCK_ROWS`` at a time: value i of a row spelled by
    ``spell`` into 24 bytes and followed by ``seps[i]``, the row by ``trailer``,
    NUL bytes dropped and the last ``drop`` bytes of all left out; each axis
    value is spelled once and gathered by index."""
    lens, n_ax, n_vals = [len(axis) for axis in axes], len(axes), len(seps)
    n_rows, width = math.prod(lens), 24 + len(seps[0])
    mat = np.empty((min(_BLOCK_ROWS, n_rows), n_vals * width + len(trailer)), np.uint8)
    slots = mat[:, :n_vals * width].reshape(len(mat), n_vals, width)
    slots[..., 24:] = np.frombuffer("".join(seps).encode(), np.uint8).reshape(n_vals, -1)
    mat[:, n_vals * width:] = np.frombuffer(trailer.encode(), np.uint8)
    spelled = np.empty(sum(lens), "V24")  # the record of each axis value
    spell(np.concatenate(axes).astype(float), spelled.view(np.uint8).reshape(-1, 24))
    steps = [(math.prod(lens[i + 1:]), n, sum(lens[:i])) for i, n in enumerate(lens)]
    for r0 in range(0, n_rows, _BLOCK_ROWS):
        m, rows = mat[:min(_BLOCK_ROWS, n_rows - r0)], np.arange(r0, min(r0 + _BLOCK_ROWS, n_rows))
        for i, (step, n, first) in enumerate(steps):  # rows per index step, length, first record
            slots[:len(m), i, :24].view("V24")[:, 0] = spelled.take(rows // step % n + first)
        spell(np.stack([c[r0:r0 + len(m)] for c in columns], 1), slots[:len(m), n_ax:])
        if r0 + len(m) == n_rows:
            m[-1, m.shape[1] - drop:] = 0
        out.write(m.tobytes().translate(None, b"\0").decode("ascii"))


def format_csv(out, names, axes, columns) -> None:
    """Rows of ``"%.16e" % v``, spelled by ``_spell``."""
    out.write(f"# {SCHEMA}, reduced units (alpha2=1), columns: " + ",".join(names) + "\n")
    seps = [","] * (len(axes) + len(columns) - 1) + ["\n"]
    _write_records(out, axes, columns, _spell, seps)


def format_json(out, names, axes, columns) -> None:
    """The bytes of ``json.dumps(doc, indent=1)``, values spelled by ``_shortest``."""
    head = json.dumps({"schema": SCHEMA, "units": "reduced (alpha2=1)",
                       "columns": list(names)}, indent=1)
    out.write(head[:-2] + ',\n "rows": [\n  [\n   ')
    seps = [",\n   "] * (len(axes) + len(columns) - 1) + ["\n  ],"]
    _write_records(out, axes, columns, _shortest, seps, "\n  [\n   ", drop=9)
    out.write("\n ]\n}\n")


def format_verify_text(out, checks) -> None:
    width = max(len(c.name) for c in checks) + 2
    lines = [f"{'check'.ljust(width)} tolerance   residual    status"]
    for c in checks:
        status = "PASS" if c.passed else "FAIL"
        lines.append(f"{c.name.ljust(width)} {c.tolerance:<11.1e} {c.residual:<11.3e} {status}")
    n_pass = sum(c.passed for c in checks)
    lines.append(f"overall: {'PASS' if n_pass == len(checks) else 'FAIL'} "
                 f"({n_pass}/{len(checks)})")
    out.write("\n".join(lines) + "\n")


def format_verify_json(out, checks) -> None:
    from .oracle import DRAW  # loaded by run_verify already
    doc = {"schema": SCHEMA, "checks": [c.to_dict() for c in checks],
           "passed": all(c.passed for c in checks), **DRAW,
           "versions": {"python": "%d.%d.%d" % sys.version_info[:3], "numpy": np.__version__}}
    out.write(json.dumps(doc, indent=1) + "\n")


@functools.cache  # built on the first call of main, not at import
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="qsatom")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, need_cfg in (("xsection", True), ("spectrum", True), ("verify", False)):
        p = sub.add_parser(name)
        p.add_argument("--config", required=need_cfg, help="JSON run configuration")
        p.add_argument("--format", choices=("csv", "json"), default="csv")
        p.add_argument("--out", default=None, help="output path (default stdout)")
        p.add_argument("--threads", type=int, default=1,
                       help="accepted for compatibility and ignored; sweeps run serially")
    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        cfg = load_config(args.config) if args.config else None
        if args.command == "verify":
            *result, code = run_verify(cfg)  # result: [checks]
            fmt = format_verify_json if args.format == "json" else format_verify_text
        else:
            run = run_xsection_sweep if args.command == "xsection" else run_spectrum_sweep
            result, code = run(cfg), 0
            fmt = format_json if args.format == "json" else format_csv
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, ArithmeticError, RuntimeError) as exc:
        print(f"numerical failure: {exc}", file=sys.stderr)
        return 1
    try:  # nothing is opened before every value is computed and checked
        if args.out is None:
            fmt(sys.stdout, *result)
        else:
            with open(args.out, "w", encoding="utf-8") as fh:
                fmt(fh, *result)
    except OSError as exc:
        print(f"cannot write output: {exc}", file=sys.stderr)
        return 2
    return code


def entry():
    sys.exit(main())


if __name__ == "__main__":
    entry()
