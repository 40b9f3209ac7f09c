"""The benchmark's workloads: seeded CLI jobs, fault probes and output checks.

A job is a fixed sequence of `leakexp` CLI calls; only the seeds it passes
(and the matrices it writes) change from job to job. A round is
`JOBS_PER_ROUND` jobs followed by the workload's fault probe, if it has one,
so the share of probe operations is the same in every run. Every output is
checked against `oracles`, never against saved program output.
"""
from __future__ import annotations

import csv
import json
import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np

import oracles

LN2 = math.log(2.0)

JOBS_PER_ROUND = 4

# Tolerances against the oracles. Erasure results agree with the subset-count
# oracle to a few ulps. Bit-flip leakage is a difference r*ln2 - H(q) of sums
# over 2^n patterns; on 70 best-of-3 searches at n = 24 (k = 2) it was off by
# up to 1.8e-8 relative (1.5e-11 nats), at n = 22 by 3.5e-9. Both stay well
# below the 1e-6 relative change the checks must catch (5e-10 nats or more
# at the smallest leakage k = 2, n = 24 can reach).
REL_BEC = 1e-10
ABS_BEC = 1e-14
REL_BSC = 1e-7
ABS_BSC = 1e-10
REL_PML = 1e-12
# Curves are printed with 12 significant digits; the grid oracle is
# accurate to about 1e-12 nats.
ABS_CURVE = 1e-10
ABS_RATE = 1e-9


class CheckFailed(Exception):
    pass


@dataclass
class Call:
    argv: list[str]
    check: Callable[[str], None]  # receives the call's captured stdout


def _close(what: str, got: float, want: float, rel: float, abs_: float = 0.0) -> None:
    if not abs(got - want) <= rel * abs(want) + abs_:
        raise CheckFailed(f"{what}: got {float(got)!r}, expected {float(want)!r}")


def _require(cond: bool, what: str) -> None:
    if not cond:
        raise CheckFailed(what)


def _load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def _write_matrix(path: Path, rows: list[str]) -> None:
    with open(path, "w", newline="\n") as fh:
        fh.write(f"{len(rows)} {len(rows[0])}\n" + "".join(r + "\n" for r in rows))


def _random_rows(rng: random.Random, k: int, n: int) -> list[str]:
    return ["".join(rng.choice("01") for _ in range(n)) for _ in range(k)]


def _parse_channel(channel: str) -> tuple[str, float]:
    family, eps = channel.split(":")
    return family, float(eps)


def _check_leakage_value(what: str, got: float, rows: list[str], family: str,
                         eps: float) -> None:
    if family == "bec":
        _close(what, got, oracles.bec_leakage(rows, eps), REL_BEC, ABS_BEC)
    else:
        _close(what, got, oracles.bsc_leakage(rows, eps), REL_BSC, ABS_BSC)


def _check_search(path: Path, k: int, n: int, channel: str, trials: int, seed: int) -> None:
    rep = _load_json(path)
    family, eps = _parse_channel(channel)
    _require((rep["k"], rep["n"], rep["channel"], rep["trials"], rep["seed"])
             == (k, n, channel, trials, seed), f"search echo fields {rep}")
    rows = rep["matrix"]
    _require(len(rows) == k and all(len(r) == n for r in rows), "search matrix shape")
    _require(oracles.rank(rows) == k, "search matrix is not of full rank k")
    _close("hash_entropy_nats", rep["hash_entropy_nats"], k * LN2, 1e-15)
    _check_leakage_value(f"search {k}x{n} {channel} leakage", rep["leakage_nats"],
                         rows, family, eps)


def _search_call(job_dir: Path, k: int, n: int, channel: str, trials: int,
                 seed: int) -> Call:
    out = job_dir / f"search-{k}x{n}.json"
    argv = ["search", "--k", str(k), "--n", str(n), "--channel", channel,
            "--trials", str(trials), "--seed", str(seed), "--out", str(out)]
    return Call(argv, lambda _: _check_search(out, k, n, channel, trials, seed))


def _leakage_call(matrix: Path, rows: list[str], channel: str, out: Path,
                  parity: bool = False) -> Call:
    """`leakage` on a matrix file; `parity` marks the all-ones 1 x n hash,
    checked against its closed forms."""
    family, eps = _parse_channel(channel)
    n = len(rows[0])

    def check(_: str) -> None:
        rep = _load_json(out)
        _require(rep["method"] == "exact-enumeration" and rep["samples"] == 0
                 and rep["ci_halfwidth"] == 0.0, f"leakage method fields {rep}")
        leak = rep["leakage_nats"]
        what = f"leakage {len(rows)}x{n} {channel}"
        if parity and family == "bec":
            _close(what, leak, oracles.parity_leakage_bec(n, eps), REL_BEC)
        elif parity:
            _close(what, leak, oracles.parity_leakage_bsc(n, eps), REL_BSC)
        else:
            _check_leakage_value(what, leak, rows, family, eps)
        _close("hash_entropy_nats", rep["hash_entropy_nats"], oracles.rank(rows) * LN2, 1e-15)
        _require(leak <= rep["hash_entropy_nats"] + 1e-12, "leakage above hash entropy")
        if family == "bsc":
            _require(rep["bound_nats"] is None and rep["slack_nats"] is None,
                     "bit-flip report carries a bound")
            return
        # bound = n * P_ML at decoding erasure 1 - eps; the parity code fails
        # only when every column is erased.
        pml = (1.0 - eps) ** n if parity else oracles.bec_pml(rows, 1.0 - eps)
        _close("bound_nats", rep["bound_nats"], n * pml, REL_PML, 1e-300)
        _close("slack_nats", rep["slack_nats"], rep["bound_nats"] - leak, 0.0, 1e-15)

    return Call(["leakage", "--matrix", str(matrix), "--channel", channel,
                 "--out", str(out)], check)


def _pml_call(matrix: Path, rows: list[str], delta: float, out: Path,
              samples: int = 0, seed: int = 0) -> Call:
    argv = ["pml", "--matrix", str(matrix), "--channel", f"bec:{delta:g}", "--out", str(out)]
    if samples:
        argv += ["--samples", str(samples), "--seed", str(seed)]

    def check(_: str) -> None:
        rep = _load_json(out)
        exact = oracles.bec_pml(rows, delta)
        _require(rep["delta"] == delta, "pml delta")
        if not samples:
            _require(rep["method"] == "exact-enumeration" and rep["samples"] == 0,
                     f"exact pml fields {rep}")
            _close("p_ml", rep["p_ml"], exact, REL_PML, 1e-300)
            return
        _require(rep["method"] == "monte-carlo" and rep["samples"] == samples,
                 f"Monte Carlo pml fields {rep}")
        # The exact value must lie inside the estimate's interval, widened to
        # three half-widths (5.9 sigma): an interval of width zero fails.
        _require(abs(rep["p_ml"] - exact) <= 3.0 * rep["ci_halfwidth"],
                 f"Monte Carlo p_ml {rep['p_ml']} +- {rep['ci_halfwidth']} "
                 f"excludes the exact {exact!r}")

    return Call(argv, check)


class Workload:
    name = ""
    probe_calls: list[Call] | None = None

    def __init__(self, seed: int, workdir: Path) -> None:
        self.rng = random.Random(f"{self.name}:{seed}")

    def job(self, job_dir: Path) -> list[Call]:
        raise NotImplementedError

    def _seed(self) -> int:
        return self.rng.randrange(1 << 31)


class BecLowRate(Workload):
    """The low-rate scaling table on the erasure side, k = round(0.1 n)."""

    name = "bec-low-rate"
    SIZES = (16, 18, 20, 22)
    TRIALS = 20

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        ones = ["1" * 24]
        _write_matrix(workdir / "ones-1x24.txt", ones)
        # Fault probe: the all-ones 1x24 hash at erasure 0.8 leaks
        # ln2 * 0.2^24 = 1.16e-17 nats; the program reports 0.0.
        self.probe_calls = [_leakage_call(
            workdir / "ones-1x24.txt", ones, "bec:0.8", workdir / "probe.json", parity=True)]

    def job(self, job_dir: Path) -> list[Call]:
        return [_search_call(job_dir, 2, n, "bec:0.5", self.TRIALS, self._seed())
                for n in self.SIZES]


class BecBound(Workload):
    """Half rate on the erasure side: the bound sweep, the pool path at 10x20,
    the warm fold and the Monte Carlo sampler."""

    name = "bec-bound"
    VERIFY_TRIALS = 10
    MC_SAMPLES = 50_000
    # Fault probe: P_ML of this 4x16 code at erasure 0.02 is 1.6e-7, so 50000
    # samples (seed 1) see no error and the interval collapses to 0 +- 0.
    PROBE_ROWS = ["1101000110110010", "0110101001011100",
                  "1011010011100101", "0001111010001111"]

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        _write_matrix(workdir / "probe-4x16.txt", self.PROBE_ROWS)
        self.probe_calls = [_pml_call(workdir / "probe-4x16.txt", self.PROBE_ROWS, 0.02,
                                      workdir / "probe.json", samples=50_000, seed=1)]

    def job(self, job_dir: Path) -> list[Call]:
        vb_seed, mc_seed = self._seed(), self._seed()
        rows = _random_rows(self.rng, 10, 20)
        matrix = job_dir / "m-10x20.txt"
        _write_matrix(matrix, rows)
        vb_out = job_dir / "bound.csv"
        return [
            Call(["verify-bound", "--k", "8", "--n", "16", "--channel", "bec:0.5",
                  "--trials", str(self.VERIFY_TRIALS), "--seed", str(vb_seed),
                  "--out", str(vb_out)],
                 lambda _: _check_bound_csv(vb_out, 8, 16, self.VERIFY_TRIALS)),
            _leakage_call(matrix, rows, "bec:0.5", job_dir / "leak.json"),
            _pml_call(matrix, rows, 0.5, job_dir / "pml.json"),
            _pml_call(matrix, rows, 0.5, job_dir / "mc.json", self.MC_SAMPLES, mc_seed),
        ]


def _check_bound_csv(path: Path, k: int, n: int, trials: int) -> None:
    with open(path, newline="") as fh:
        table = list(csv.reader(fh))
    _require(table[0] == ["trial", "leakage_nats", "bound_nats", "slack_nats"],
             "verify-bound header")
    _require([int(r[0]) for r in table[1:]] == list(range(trials)), "verify-bound trial column")
    for row in table[1:]:
        leak, bound, slack = (float(x) for x in row[1:])
        _require(slack >= -1e-9, f"trial {row[0]}: slack {slack} below -1e-9")
        _require(0.0 <= leak <= k * LN2 * (1 + 1e-12), f"trial {row[0]}: leakage {leak}")
        _require(0.0 <= bound <= n, f"trial {row[0]}: bound {bound} outside [0, n]")
        _close(f"trial {row[0]} slack", slack, bound - leak, 0.0, 1e-9)


class BscLeakage(Workload):
    """Bit-flip leakage, whose syndrome distribution costs 2^n whatever k is."""

    name = "bsc-leakage"
    SIZES = (18, 20, 22, 24)
    TRIALS = 3

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        ones = ["1" * 20]
        _write_matrix(workdir / "ones-1x20.txt", ones)
        # Fault probe: the all-ones 1x20 hash at flip 0.35 leaks 6.08e-22
        # nats; the program reports 5.4e-13.
        self.probe_calls = [_leakage_call(
            workdir / "ones-1x20.txt", ones, "bsc:0.35", workdir / "probe.json", parity=True)]

    def job(self, job_dir: Path) -> list[Call]:
        calls = [_search_call(job_dir, 2, n, "bsc:0.11", self.TRIALS, self._seed())
                 for n in self.SIZES]
        calls.append(_search_call(job_dir, 11, 22, "bsc:0.11", self.TRIALS, self._seed()))
        return calls


class ExponentCurves(Workload):
    """Exponent curves and characteristic rates only: no leakage code runs.
    The calls take no seed, so every job is the same."""

    name = "exponent-curves"
    _CURVES = {
        # file stem: (oracle, clamped)
        "fig3_er": (lambda r: oracles.er_bec(r, 0.5), True),
        "fig3_ex": (lambda r: oracles.ex_bec(r, 0.5), True),
        "fig4_er": (lambda r: oracles.er_bsc(r, 0.11), True),
        "fig4_ex": (lambda r: oracles.ex_bsc_reduction(r, 0.11), True),
        "fig5_er": (lambda r: oracles.er_bsc(r, 0.25), True),
        "fig5_ex": (lambda r: oracles.ex_bsc_reduction(r, 0.25), True),
        "er-general": (lambda r: oracles.er_bsc(r, 0.11), False),
    }

    def __init__(self, seed: int, workdir: Path) -> None:
        super().__init__(seed, workdir)
        self._expected: dict[str, np.ndarray] = {}

    def _oracle(self, stem: str) -> np.ndarray:
        if stem not in self._expected:
            fn, clamp = self._CURVES[stem]
            values = fn(np.linspace(0.0, LN2, 200))
            self._expected[stem] = np.maximum(values, 0.0) if clamp else values
        return self._expected[stem]

    def _check_curve(self, path: Path, stem: str) -> None:
        with open(path, newline="") as fh:
            table = list(csv.reader(fh))
        _require(table[0] == ["R_nats", "value_nats", "R_bits", "value_bits", "theta_star"],
                 f"{stem} header")
        _require(len(table) == 201, f"{stem}: {len(table) - 1} points, expected 200")
        rates = np.array([float(r[0]) for r in table[1:]])
        values = np.array([float(r[1]) for r in table[1:]])
        _require(np.allclose(rates, np.linspace(0.0, LN2, 200), rtol=0, atol=1e-12),
                 f"{stem}: rate grid")
        expected = self._oracle(stem)
        worst = int(np.argmax(np.abs(values - expected)))
        _close(f"{stem} value at R={rates[worst]}", values[worst], expected[worst],
               ABS_CURVE, ABS_CURVE)
        for row in table[1:]:
            r, v, rb, vb = (float(x) for x in row[:4])
            _close(f"{stem} R_bits", rb, r / LN2, 1e-11, 1e-300)
            _close(f"{stem} value_bits", vb, v / LN2, 1e-11, 1e-300)

    def _check_rates(self, path: Path) -> None:
        rep = _load_json(path)
        eps = 0.11
        delta = (1.0 - 2.0 * eps) ** 2
        _require(rep["eps"] == eps, "rates eps")
        _close("delta", rep["delta"], delta, 1e-15)
        _close("R_cr_nats", rep["R_cr_nats"], oracles.critical_rate_bsc(eps), 0.0, ABS_RATE)
        _close("R_x_nats", rep["R_x_nats"], oracles.expurgation_rate(delta), 0.0, ABS_RATE)
        _require(rep["R_x_nats"] <= rep["R_cr_nats"], "R_x above R_cr")
        _close("R_cr_bits", rep["R_cr_bits"], rep["R_cr_nats"] / LN2, 1e-15)
        _close("R_x_bits", rep["R_x_bits"], rep["R_x_nats"] / LN2, 1e-15)

    def job(self, job_dir: Path) -> list[Call]:
        calls = []
        for fig in ("fig3", "fig4", "fig5"):
            def check(stdout: str, fig=fig) -> None:
                paths = [f"{job_dir}/{fig}_{stem}.csv" for stem in ("er", "ex")]
                _require(stdout == "".join(f"wrote {p}\n" for p in paths),
                         f"{fig} stdout {stdout!r}")
                for stem in ("er", "ex"):
                    self._check_curve(job_dir / f"{fig}_{stem}.csv", f"{fig}_{stem}")
            calls.append(Call(["exponents", "--preset", fig, "--out", str(job_dir)], check))
        erg = job_dir / "er-general.csv"
        calls.append(Call(["exponents", "er-general", "--channel", "bsc:0.11",
                           "--steps", "200", "--out", str(erg)],
                          lambda _: self._check_curve(erg, "er-general")))
        rates = job_dir / "rates.json"
        calls.append(Call(["rates", "--channel", "bsc:0.11", "--out", str(rates)],
                          lambda _: self._check_rates(rates)))
        return calls


WORKLOADS = {w.name: w for w in (BecLowRate, BecBound, BscLeakage, ExponentCurves)}
