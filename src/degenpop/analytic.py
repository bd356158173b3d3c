"""Closed-form propagation in the dressed basis, its CSV, and two scan formulas.

The whole time dependence enters through the envelope action A(t).
Starting from state 1 the bare amplitudes at action A are

    a(A) = e_1 + D^-1 Q (e^{-izA} - 1) Q^T e_1 = e_1 + m_inv (e^{-izA} - 1),

with ``S = D r D^-1 = Q diag(z) Q^T`` the symmetrized strength matrix
(see :mod:`degenpop.dressed`).  Propagation is one complex
matrix-vector product per requested action value.  Written around
``e^{-izA} - 1`` the sum returns ``e_1`` exactly at A = 0.

:func:`write_csv` formats the CSV on up to one forked worker per usable
CPU; its bytes are identical for any worker count.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel
from .dressed import DressedBasis
from .errors import DomainError, OutOfDomain
from .pulses import action_values

CLOSURE_TOL = 1e-9
# rows per write_csv block, formatted by one % (8192 measured fastest)
_CSV_BLOCK_ROWS = 8192


@dataclass(frozen=True)
class Trajectory:
    """Time series of populations with the closure diagnostic.

    ``probabilities[k, j]`` is the population of bare state j at
    ``times[k]``; ``closure[k]`` is the closure-weighted population
    sum, which equals 1 up to roundoff for exact propagation.
    """

    times: np.ndarray
    amplitudes: np.ndarray
    probabilities: np.ndarray
    closure: np.ndarray


def amplitudes_many(basis: DressedBasis, actions: np.ndarray) -> np.ndarray:
    """Bare amplitudes at many action values; rows index the actions."""
    actions = np.asarray(actions, dtype=float).ravel()
    phases = np.exp(-1j * (actions[:, None] * basis.z))
    phases -= 1.0
    amps = phases @ basis.m_inv.T
    amps[:, 0] += 1.0
    return amps


def probabilities_at(basis: DressedBasis, action: float) -> np.ndarray:
    """Populations |a_j|^2 at one action value, closure-checked.

    The populations weighted by the basis's closure weights
    ``basis.scale**2`` must sum to 1 within CLOSURE_TOL, else
    ArithmeticError.  :func:`trajectory` reports its closure sums instead
    of checking them.
    """
    p = np.abs(amplitudes_many(basis, [float(action)])[0]) ** 2
    total = float(basis.scale ** 2 @ p)
    if abs(total - 1.0) > CLOSURE_TOL:
        raise ArithmeticError(f"closure sum {total!r} deviates from 1")
    return p


def trajectory(model: CouplingModel, basis: DressedBasis,
               times) -> Trajectory:
    """Exact populations along a time grid under the model's pulse.

    The closed form holds for degenerate states only: unequal
    ``model.energies`` raise DomainError (equal ones are a global phase).
    ``times``: a finite, non-negative, non-decreasing 1-d grid, checked here for any pulse.
    """
    energies = model.energies.tolist()
    if len(set(energies)) > 1:
        raise DomainError("closed-form propagation needs equal energies, "
                          f"got energies={energies}")
    times = np.asarray(times, dtype=float)
    actions = action_values(model.pulse, times)
    # after a built-in pulse's own check; NaN fails every comparison, so ends suffice
    if times.ndim != 1 or times.size and not (
            times[0] >= 0.0 and times[-1] < math.inf and (times[1:] >= times[:-1]).all()):
        raise OutOfDomain("times must be a finite, non-negative, non-decreasing 1-d grid")
    amps = amplitudes_many(basis, actions)
    probs = np.abs(amps) ** 2
    closure = probs @ model.closure_weights
    return Trajectory(times, amps, probs, closure)


def trajectory_to_csv(traj: Trajectory, start: int = 0, stop: int | None = None) -> str:
    """Serialize rows ``start`` up to (not including) ``stop`` of a
    trajectory as CSV: t, per-state populations, closure.

    The header ``t,P1,...,Pn,closure`` comes first when ``start`` is 0; a
    ``stop`` past the last row (or None) ends at it, so the defaults give
    the whole text.  Every number is written as ``%.17g`` (so it reads back
    to the same float), every line ends in ``\n``, and identical input
    gives byte-identical output.  The rows are formatted by one ``%``;
    :func:`write_csv` alone cuts a trajectory into blocks.
    """
    n = traj.probabilities.shape[1]
    row = ",".join(["%.17g"] * (n + 2)) + "\n"
    rows = slice(start, stop)
    block = np.column_stack((traj.times[rows], traj.probabilities[rows], traj.closure[rows]))
    text = (row * len(block)) % tuple(block.ravel().tolist())
    if start == 0:
        text = "t," + "".join(f"P{j + 1}," for j in range(n)) + "closure\n" + text
    return text


def write_csv(traj: Trajectory, fh) -> None:
    """Write :func:`trajectory_to_csv`'s text to the open text file ``fh``
    (``io.StringIO`` too) in ``_CSV_BLOCK_ROWS``-row blocks.

    The blocks are cut into contiguous ranges, one per usable CPU (at most one
    per block).  The first range is formatted here, each later one by a forked
    worker into a temporary file that is then copied to ``fh`` in order.  A
    worker that fails raises OSError, and no worker outlives the call.  The
    bytes are the same for any worker count, and memory stays one block deep.
    """
    # the header alone when there are no rows
    starts = range(0, max(traj.times.size, 1), _CSV_BLOCK_ROWS)
    k = min(_usable_cpus(), len(starts))
    ranges = [starts[i * len(starts) // k:(i + 1) * len(starts) // k] for i in range(k)]
    with contextlib.ExitStack() as files:
        workers = []  # (file, pid) per later range; pid None where the fork failed
        try:
            for r in ranges[1:]:
                tmp = files.enter_context(tempfile.TemporaryFile())
                workers.append((tmp, _fork_writer(traj, r, tmp.fileno())))
            _write_blocks(traj, ranges[0], fh.write)
        finally:
            statuses = [(pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                        for _, pid in workers if pid is not None]
        for pid, code in statuses:
            if code:
                raise OSError(f"CSV worker {pid} exited with status {code}")
        for r, (tmp, pid) in zip(ranges[1:], workers):
            if pid is None:
                _write_blocks(traj, r, fh.write)
                continue
            tmp.seek(0)  # the worker moved the offset it shares with tmp
            while chunk := tmp.read(1 << 20):
                fh.write(chunk.decode("ascii"))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_blocks(traj: Trajectory, starts: range, write) -> None:
    # the module-level name is looked up per block, so a wrapper installed on
    # it sees every block
    for lo in starts:
        write(trajectory_to_csv(traj, lo, lo + _CSV_BLOCK_ROWS))


def _fork_writer(traj: Trajectory, starts: range, fd: int) -> int | None:
    """Pid of a forked worker writing the blocks at ``starts`` to ``fd``, or
    None when the fork fails.  The worker leaves only through ``os._exit``: it
    never returns into the caller or flushes inherited stdio."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    status = 1
    try:
        with open(fd, "w", encoding="ascii", newline="", closefd=False) as out:
            _write_blocks(traj, starts, out.write)
        status = 0
    finally:
        os._exit(status)


def leakage_estimate(omega21: float, omega: float) -> float:
    """Order-of-magnitude bound on the off-resonant population loss.

    Treats the detuned neighbor as accumulating phase-slip amplitude of
    order ``(pi/2)^3 omega21 / omega`` over the transfer; squaring gives
    ``(1/4) (pi/2)^6 (omega21/omega)^2 = 3.755 r^2`` with
    ``r = omega21/omega``.  The loss that propagation gives, 0.1654 r^2
    from :func:`degenpop.numeric.leakage_scan` for the two-state harmonic
    transfer, is 22.7 times smaller.
    """
    return 0.25 * (np.pi / 2.0) ** 6 * (omega21 / omega) ** 2


def flatness_frequency(p_cr: float, t_s: float) -> float:
    """Carrier frequency keeping the transfer dip below ``p_cr`` over a
    hold window of half-width ``t_s``.

    Inverts the quartic dip ``(pi^2/16) (omega t_s)^4`` of a harmonic transfer
    at ``t_s`` past its quarter period (the Taylor form of the exact dip, kept
    as a test oracle in ``tests/oracles.py``):
    ``omega t_s = (16 p_cr / pi^2)^(1/4) = sqrt(4/pi) p_cr^(1/4)``.  The exact
    dip there is ``p_cr`` less about ``(2/(3 pi)) p_cr^1.5``.  ``p_cr = 1`` is
    the degenerate bound where the dip reaches the full population.
    """
    if not 0.0 < p_cr <= 1.0:
        raise DomainError("p_cr must lie in (0, 1]")
    if not 0.0 < t_s < math.inf:
        raise DomainError("t_s must be positive and finite")
    return math.sqrt(4.0 / np.pi) * p_cr ** 0.25 / t_s

