"""The benchmark's workloads: seeded inputs, reference oracles, operations
and the checks that judge them.

Each workload is built from a seed in :meth:`setup`, which also computes
every reference (``scipy.linalg.expm`` columns, DOP853 solutions) so that
checking costs no measured time.  :meth:`run` performs one operation
through degenpop's public surface, looking every function up on its
module at call time so a tracer can wrap it; :meth:`prepare` readies
one operation before its timer starts.  :meth:`check` returns
``PASS``, ``FAIL``, or the key in :data:`KNOWN_DEFECTS` of the recorded
defect the operation shows.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np
from scipy.integrate import solve_ivp
from scipy.linalg import expm

from degenpop import analytic, cli, control, coupling, dressed, numeric, pulses
from degenpop.errors import DegenerateSpectrum, FirstComponentZero

PASS, FAIL = "pass", "fail"

KNOWN_DEFECTS = {
    "design_nstate": "control.design_nstate is wrong for n >= 4 (alpha and A(t0) "
                     "formulas), so propagating its designs misses P2(t0) = 1",
    "full_nstate": "dressed.decompose_general cannot normalize the full n-state "
                   "model (repeated manifold eigenvalues): it raises "
                   "FirstComponentZero or DegenerateSpectrum",
}

TOL = 1e-9
CSV_TOL = 1e-12
ZERO3 = np.zeros(3)


def expm_column(w: np.ndarray, actions: np.ndarray) -> np.ndarray:
    """First column of ``exp(-i A W)`` for each action ``A``: rows index ``A``."""
    return expm(-1j * np.asarray(actions)[:, None, None] * w[None])[:, :, 0]


def harmonic_action(chi: float, omega: float, t) -> np.ndarray:
    return (chi / omega) * np.sin(omega * np.asarray(t))


def w_3state(alpha: float, beta: float, eps) -> np.ndarray:
    e1, e2, e3 = eps
    return np.array([[e1, alpha, beta], [alpha, e2, 1.0], [beta, 1.0, e3]])


def w_full_nstate(n: int, alpha: float) -> np.ndarray:
    """Unreduced symmetric n-state strength matrix, zero self coupling.

    States 1 and 2 couple to each other with ``alpha`` and to every manifold
    state with 1; manifold states couple among themselves with 1/(n-2).
    """
    w = np.full((n, n), 1.0 / (n - 2))
    w[:2, :] = 1.0
    w[:, :2] = 1.0
    w[0, 1] = w[1, 0] = alpha
    np.fill_diagonal(w, 0.0)
    return w


def odd_design_pairs(max_product: int) -> list[tuple[int, int]]:
    """(n1, n2) with n1 n2 <= max_product and odd (2n1-n2)/3, (2n2-n1)/3."""
    out = []
    for n1 in range(1, max_product + 1, 2):
        for n2 in range(1, max_product // n1 + 1, 2):
            a, b = 2 * n1 - n2, 2 * n2 - n1
            if a % 3 == 0 and b % 3 == 0 and (a // 3) % 2 and (b // 3) % 2:
                out.append((n1, n2))
    return out


def _summary_fields(stdout: str) -> dict[str, float]:
    fields = {}
    for tok in stdout.split():
        key, sep, val = tok.partition("=")
        if sep:
            fields[key] = float(val)
    return fields


class Workload:
    name = ""

    def setup(self, seed: int, workdir: Path) -> None:
        raise NotImplementedError

    def prepare(self, op) -> None:
        """Untimed work before ``run(op)``; nothing by default."""

    def run(self, op):
        raise NotImplementedError

    def check(self, op, result) -> str:
        raise NotImplementedError


class CliWorkload(Workload):
    """Operations are ``degenpop`` commands; ``argvs`` maps each to its argv
    and ``outputs`` to the file it must write."""

    argvs: dict[str, list[str]]
    outputs: dict[str, Path]

    def prepare(self, op) -> None:
        """Remove the output of the previous pass, so a command that writes
        nothing leaves nothing to check."""
        self.outputs[op].unlink(missing_ok=True)

    def run(self, op):
        """One command in process; returns (exit code, stdout)."""
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            rc = cli.main(self.argvs[op])
        return rc, out.getvalue()

    def check(self, op, result) -> str:
        if isinstance(result, Exception):
            return FAIL
        rc, stdout = result
        if rc != 0:
            return FAIL
        try:
            return self.check_output(op, stdout)
        except (OSError, ValueError, KeyError, IndexError):  # missing or malformed output
            return FAIL

    def check_output(self, op, stdout: str) -> str:
        raise NotImplementedError


# -- design_sweep --------------------------------------------------------

@dataclass
class DesignOp:
    kind: str  # design3 | designN | fullN | random3
    params: tuple
    times: np.ndarray
    check_idx: np.ndarray
    ref: np.ndarray  # expm amplitudes at times[check_idx], reduced to the model's rows
    weights: np.ndarray  # closure weights of the model's rows
    transfer: bool  # must reach P2 = 1 at the last sample
    known: str | None  # key into KNOWN_DEFECTS


class DesignSweep(Workload):
    """Verify complete-transfer designs and general models by propagation."""

    name = "design_sweep"
    SAMPLES = 256
    CHECKED = 16
    RANDOM_MODELS = 512

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        ops: list[DesignOp] = []
        for n1, n2 in odd_design_pairs(2000):
            for sign in (1, -1):
                ops.append(self._design_op(rng, "design3", (n1, n2, sign)))
        for n in range(4, 13):
            for n0 in (1, 3, 5, 7):
                ops.append(self._design_op(rng, "designN", (n, n0)))
        for n in range(4, 9):
            alpha, chi, omega = rng.uniform(-1, 1), rng.uniform(0.5, 2), rng.uniform(0.5, 2)
            w = w_full_nstate(n, alpha)
            ops.append(self._op(rng, "fullN", (n, w, chi, omega), w, chi, omega,
                                np.arange(n), np.ones(n), False, "full_nstate"))
        for _ in range(self.RANDOM_MODELS):
            alpha, beta = rng.uniform(-2, 2, 2)
            eps = tuple(rng.uniform(-1, 1, 3))
            chi, omega = rng.uniform(0.5, 3), rng.uniform(0.5, 2)
            w = w_3state(alpha, beta, eps)
            ops.append(self._op(rng, "random3", (alpha, beta, eps, chi, omega), w, chi,
                                omega, np.arange(3), np.ones(3), False, None))
        rng.shuffle(ops)
        self.ops = ops

    def _design_op(self, rng, kind: str, params: tuple) -> DesignOp:
        omega = rng.uniform(0.5, 2)
        if kind == "design3":
            d = control.design_3state(*params)
            w = w_3state(d.alpha, d.beta, ZERO3)
            rows, weights, known = np.arange(3), np.ones(3), None
        else:
            n = params[0]
            d = control.design_nstate(*params)
            w = w_full_nstate(n, d.alpha)
            rows, weights, known = np.arange(3), np.array([1.0, 1.0, n - 2]), "design_nstate"
        chi = control.pulse_for_design(d, omega).chi
        return self._op(rng, kind, params + (omega,), w, chi, omega, rows, weights, True, known)

    def _op(self, rng, kind, params, w, chi, omega, rows, weights, transfer, known) -> DesignOp:
        t_end = 0.5 * math.pi / omega if transfer else 2.0 * math.pi / omega
        times = np.linspace(0.0, t_end, self.SAMPLES)
        idx = np.sort(np.concatenate([[0, self.SAMPLES - 1], rng.choice(
            np.arange(1, self.SAMPLES - 1), self.CHECKED - 2, replace=False)]))
        ref = expm_column(w, harmonic_action(chi, omega, times[idx]))[:, rows]
        return DesignOp(kind, params, times, idx, ref, weights, transfer, known)

    def run(self, op: DesignOp):
        if op.kind == "design3":
            n1, n2, sign, omega = op.params
            d = control.design_3state(n1, n2, sign)
            model = coupling.standard_3state(d.alpha, d.beta, ZERO3,
                                             control.pulse_for_design(d, omega))
        elif op.kind == "designN":
            n, n0, omega = op.params
            d = control.design_nstate(n, n0)
            model = coupling.symmetric_nstate(n, d.alpha, 0.0,
                                              control.pulse_for_design(d, omega))
        elif op.kind == "fullN":
            n, w, chi, omega = op.params
            model = coupling.CouplingModel(n, w, np.zeros(n), np.zeros(n),
                                           pulses.HarmonicPulse(chi, omega))
        else:
            alpha, beta, eps, chi, omega = op.params
            model = coupling.standard_3state(alpha, beta, np.array(eps),
                                             pulses.HarmonicPulse(chi, omega))
        basis = dressed.decompose_general(model)
        return analytic.trajectory(model, basis, op.times)

    def check(self, op: DesignOp, result) -> str:
        if isinstance(result, Exception):
            raised_known = (op.known == "full_nstate"
                            and isinstance(result, (FirstComponentZero, DegenerateSpectrum)))
            return op.known if raised_known else FAIL
        probs, amps = result.probabilities, result.amplitudes
        if probs.shape != (self.SAMPLES, op.weights.size) or amps.shape != probs.shape:
            return FAIL
        got = amps[op.check_idx]
        if not (np.max(np.abs(got - op.ref)) <= TOL
                and np.max(np.abs(probs[op.check_idx] - np.abs(op.ref) ** 2)) <= TOL
                and np.max(np.abs(probs @ op.weights - 1.0)) <= TOL):
            return FAIL
        if op.transfer and not abs(probs[-1, 1] - 1.0) <= TOL:
            return op.known if op.known == "design_nstate" else FAIL
        return PASS


# -- dense_trajectory ----------------------------------------------------

class DenseTrajectory(CliWorkload):
    """One large analytic ``simulate`` with CSV file output per operation."""

    name = "dense_trajectory"
    SAMPLES = 200_000
    CHECKED_ROWS = 64
    PERIODS = 4

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        pairs = odd_design_pairs(35)
        n1, n2 = pairs[rng.integers(len(pairs))]
        sign = int(rng.choice([1, -1]))
        # paper's closed forms, independent of degenpop.control
        self.area = math.sqrt(n1 * n2 / 2.0) * math.pi / 3.0
        alpha = sign * math.sqrt(2.0 / (n1 * n2)) * (n1 - n2)
        self.out = workdir / "dense.csv"
        t_end = self.PERIODS * 2.0 * math.pi
        cfg = {
            "model": {"n": 3, "alpha": alpha, "beta": 1.0, "eps": 0},
            "pulse": {"kind": "harmonic", "chi": self.area, "omega": 1.0},
            "run": {"mode": "analytic", "t_end": t_end, "samples": self.SAMPLES},
            "output": {"path": str(self.out), "format": "csv"},
        }
        config = workdir / "dense.json"
        config.write_text(json.dumps(cfg))
        self.argvs = {"simulate": ["--config", str(config), "simulate"]}
        self.outputs = {"simulate": self.out}
        self.ops = ["simulate"]
        self.rows = set(int(k) for k in rng.choice(self.SAMPLES, self.CHECKED_ROWS,
                                                   replace=False))
        self.w = w_3state(alpha, 1.0, ZERO3)
        self.digest = None

    def check_output(self, op, stdout: str) -> str:
        fields = _summary_fields(stdout)
        if not (abs(fields.get("P2(t0)", 0.0) - 1.0) <= TOL
                and fields.get("closure_max_err", 1.0) <= CSV_TOL):
            return FAIL
        digest, rows, count = hashlib.sha256(), [], -1
        with open(self.out, "rb") as fh:
            for count, line in enumerate(fh):
                digest.update(line)
                if count - 1 in self.rows:
                    rows.append([float(x) for x in line.split(b",")])
        if count != self.SAMPLES:
            return FAIL
        if self.digest is None:
            self.digest = digest.digest()
        elif digest.digest() != self.digest:
            return FAIL
        rows = np.array(rows)
        ref = np.abs(expm_column(self.w, harmonic_action(self.area, 1.0, rows[:, 0]))) ** 2
        if not (np.max(np.abs(rows[:, 1:4] - ref)) <= CSV_TOL
                and np.max(np.abs(rows[:, 4] - 1.0)) <= CSV_TOL):
            return FAIL
        return PASS


# -- integrator_scans ----------------------------------------------------

class IntegratorScans(CliWorkload):
    """Leakage scan, kick scan and a sampled-envelope compare per pass."""

    name = "integrator_scans"
    WIDTHS = (0.4, 0.2, 0.1, 0.05)
    ENVELOPE_ROWS = 1001

    def setup(self, seed: int, workdir: Path) -> None:
        rng = np.random.default_rng(seed)
        self.ratios = [float(r) for r in 10.0 ** rng.uniform(0, 2, 5)] + [math.inf]
        self.leak_out = workdir / "leakage.csv"
        self.leak_ref = [self._leakage_reference(r) for r in self.ratios]

        alpha, a0 = float(rng.uniform(-1, 1)), float(rng.uniform(0.2, 0.5 * math.pi))
        self.kick_out = workdir / "kick.csv"
        self.kick_ref = abs(expm_column(w_3state(alpha, 1.0, ZERO3), np.array([a0]))[0, 1]) ** 2

        c_alpha, chi = float(rng.uniform(-0.5, 0.5)), float(rng.uniform(0.5, 1.0))
        t_end = 4.0 * math.pi
        t = np.linspace(0.0, t_end, self.ENVELOPE_ROWS)
        v = chi * np.cos(t)
        envelope = workdir / "envelope.csv"
        envelope.write_text("t,V\n" + "".join(f"{a!r},{b!r}\n"
                                              for a, b in zip(t.tolist(), v.tolist())))
        model = coupling.standard_3state(c_alpha, 1.0, ZERO3, pulses.load_sampled_csv(envelope))
        self.compare_out = workdir / "compare.json"
        cfg = {
            "model": {"n": 3, "alpha": c_alpha, "beta": 1.0, "eps": 0, "energies": 0},
            "pulse": {"kind": "custom_sampled", "samples_file": str(envelope)},
            "run": {"mode": "compare", "t_end": t_end, "dt": numeric.resolution_bound(model)},
            "output": {"path": str(self.compare_out), "format": "json"},
        }
        config = workdir / "compare_config.json"
        config.write_text(json.dumps(cfg))
        trapezoid_action = float(np.sum(0.5 * (v[1:] + v[:-1]) * np.diff(t)))
        self.compare_ref = np.abs(expm_column(w_3state(c_alpha, 1.0, ZERO3),
                                              np.array([trapezoid_action]))[0]) ** 2

        self.argvs = {
            "leakage": ["--out", str(self.leak_out), "leakage",
                        "--ratios", ",".join(repr(r) for r in self.ratios)],
            "kick": ["--out", str(self.kick_out), "kick", "--A0", repr(a0), "--n", "3",
                     "--alpha", repr(alpha), "--widths", ",".join(map(repr, self.WIDTHS))],
            "compare": ["--config", str(config), "simulate", "--mode", "compare"],
        }
        self.outputs = {"leakage": self.leak_out, "kick": self.kick_out,
                        "compare": self.compare_out}
        self.ops = ["leakage", "kick", "compare"]

    @staticmethod
    def _leakage_reference(ratio: float) -> float:
        """1 - P2 at the quarter period of a chi = pi/2, omega = 1 drive on
        two states split by omega21 = 1/ratio, by DOP853."""
        omega21 = 0.0 if math.isinf(ratio) else 1.0 / ratio

        def rhs(t, y):
            a = y[:2] + 1j * y[2:]
            v = 0.5 * math.pi * math.cos(t)
            da = -1j * (np.array([0.0, omega21]) * a + v * a[::-1])
            return np.concatenate([da.real, da.imag])

        sol = solve_ivp(rhs, (0.0, 0.5 * math.pi), [1.0, 0.0, 0.0, 0.0],
                        method="DOP853", rtol=1e-13, atol=1e-13)
        a2 = sol.y[1, -1] + 1j * sol.y[3, -1]
        return 1.0 - abs(a2) ** 2

    def check_output(self, op, stdout: str) -> str:
        if op == "compare":
            doc = json.loads(self.compare_out.read_text())
            p = np.array(doc["P"])
            if not (len(doc["t"]) == p.shape[0] == len(doc["closure"]) == self.ENVELOPE_ROWS
                    and np.max(np.abs(p.sum(axis=1) - np.array(doc["closure"]))) <= CSV_TOL
                    and np.max(np.abs(p[-1] - self.compare_ref)) <= TOL):
                return FAIL
            return PASS
        path, ref = ((self.leak_out, self.leak_ref) if op == "leakage"
                     else (self.kick_out, [self.kick_ref] * len(self.WIDTHS)))
        keys = self.ratios if op == "leakage" else list(self.WIDTHS)
        lines = path.read_text().splitlines()[1:]
        rows = [tuple(float(x) for x in line.split(",")) for line in lines]
        if [r[0] for r in rows] != keys:
            return FAIL
        if not all(abs(r[1] - e) <= TOL for r, e in zip(rows, ref)):
            return FAIL
        return PASS


WORKLOADS = {w.name: w for w in (DesignSweep, DenseTrajectory, IntegratorScans)}
