"""Closed-form propagation in the dressed basis, its CSV, and the flatness frequency.

The whole time dependence enters through the envelope action A(t).
Starting from state 1 the bare amplitudes at action A are

    a(A) = e_1 + D^-1 Q (e^{-izA} - 1) Q^T e_1 = e_1 + m_inv (e^{-izA} - 1),

with ``S = D r D^-1 = Q diag(z) Q^T`` the symmetrized strength matrix
(see :mod:`degenpop.dressed`).  Written around ``e^{-izA} - 1`` the sum
returns ``e_1`` exactly at A = 0.

Each row's n phase terms are summed in index order (:func:`dressed._product`),
so its bits depend on its own time alone, not on how many rows are propagated
with it: a run need not be held whole.  :func:`trajectory_rows`
propagates any rows on demand, bitwise as :func:`trajectory` gives them
on the whole grid, and :func:`write_csv` spreads the CSV's blocks over up
to one forked worker per usable CPU, each propagating and formatting only
its own blocks.  The bytes are identical for any worker count.
"""

from __future__ import annotations

import contextlib
import math
import os
import tempfile
from dataclasses import dataclass

import numpy as np

from .coupling import CouplingModel
from .dressed import DressedBasis, _product
from .errors import DomainError, OutOfDomain
from .pulses import action_values

# rows per write_csv block, propagated in one call and formatted by one %:
# a process holds one block; formatting speed is flat from 2048 to 16384 rows
_CSV_BLOCK_ROWS = 4096


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

    @classmethod
    def from_amplitudes(cls, times, amps, weights) -> Trajectory:
        """The trajectory of bare amplitudes ``amps`` on ``times``; its
        closure sums the weighted populations in index order, elementwise,
        so a row's closure depends on that row alone and on no BLAS build."""
        probs = np.abs(amps) ** 2
        weighted = probs * weights
        closure = weighted[:, 0].copy()
        for i in range(1, weighted.shape[1]):
            closure += weighted[:, i]
        return cls(times, amps, probs, closure)

    def rows(self, lo: int, hi: int) -> Trajectory:
        """Rows ``lo`` up to (not including) ``hi`` as views; a row source
        for :func:`write_csv`."""
        return Trajectory(self.times[lo:hi], self.amplitudes[lo:hi],
                          self.probabilities[lo:hi], self.closure[lo:hi])

    @property
    def closure_error(self) -> float:
        """Largest ``|closure - 1|`` over the rows, reported, never raised:
        NaN if any closure is NaN, 0 for no rows."""
        return float(np.max(np.abs(self.closure - 1.0), initial=0.0))


def amplitudes_many(basis: DressedBasis, actions: np.ndarray) -> np.ndarray:
    """Bare amplitudes at many action values; rows index the actions."""
    actions = np.asarray(actions, dtype=float).ravel()
    # (state, row) layout; the real weights scale the float view (re, im, ...)
    # of the phase rows with no complex cast
    phases = np.exp(-1j * (basis.z[:, None] * actions))
    phases -= 1.0
    amps = _product(basis.m_inv, phases.view(float)).view(complex)
    amps[0] += 1.0
    return amps.T.copy()


def trajectory(model: CouplingModel, basis: DressedBasis,
               times) -> Trajectory:
    """Exact populations along a time grid under the model's pulse.

    The closed form holds for degenerate states only: unequal
    ``model.energies`` raise DomainError (equal ones are a global phase).
    ``times``: a finite, non-negative, non-decreasing 1-d grid, checked here for any pulse.
    """
    times = _checked_grid(model, times)
    amps = amplitudes_many(basis, action_values(model.pulse, times))
    return Trajectory.from_amplitudes(times, amps, model.closure_weights)


def trajectory_rows(model: CouplingModel, basis: DressedBasis, times):
    """Row source for :func:`write_csv` that holds only ``times``: ``rows(lo, hi)``
    is ``trajectory(model, basis, times[lo:hi])``, bitwise those rows of
    ``trajectory(model, basis, times)``.  What :func:`trajectory` raises for
    the model and the grid is raised here, before any row is propagated.
    """
    times = _checked_grid(model, times)

    def rows(lo: int, hi: int) -> Trajectory:
        # the module-level name, so a wrapper installed on it sees every block
        return trajectory(model, basis, times[lo:hi])

    return rows


def _checked_grid(model: CouplingModel, times) -> np.ndarray:
    """``times`` as floats, after the checks of :func:`trajectory`."""
    energies = model.energies.tolist()
    if len(set(energies)) > 1:
        raise DomainError("closed-form propagation needs equal energies, "
                          f"got energies={energies}")
    times = np.asarray(times, dtype=float)
    # NaN fails every comparison, so the ends and the order suffice
    if times.ndim != 1 or times.size and not (
            times[0] >= 0.0 and times[-1] < math.inf and (times[1:] >= times[:-1]).all()):
        raise OutOfDomain("times must be a finite, non-negative, non-decreasing 1-d grid")
    return times


def trajectory_to_csv(traj: Trajectory, header: bool = True) -> str:
    """Serialize a trajectory as CSV: t, per-state populations, closure.

    The header ``t,P1,...,Pn,closure`` comes first when ``header`` is true.
    Every number is written as ``%.17g`` (so it reads back to the same
    float), every line ends in ``\n``, and identical input gives
    byte-identical output.  The rows are formatted by one ``%``;
    :func:`write_csv` feeds it one block of rows at a time.
    """
    n = traj.probabilities.shape[1]
    row = ",".join(["%.17g"] * (n + 2)) + "\n"
    block = np.column_stack((traj.times, traj.probabilities, traj.closure))
    text = (row * len(block)) % tuple(block.ravel().tolist())
    if header:
        text = "t," + "".join(f"P{j + 1}," for j in range(n)) + "closure\n" + text
    return text


def write_csv(rows, count: int, fh) -> float:
    """Write the CSV text of rows 0 up to ``count`` of the row source
    ``rows`` to the open text file ``fh`` (``io.StringIO`` too), and return
    their largest closure error (:attr:`Trajectory.closure_error`).

    ``rows(lo, hi)`` gives the :class:`Trajectory` of rows lo up to hi: a
    finished trajectory's :meth:`Trajectory.rows`, or :func:`trajectory_rows`,
    which propagates them then.  The ``_CSV_BLOCK_ROWS``-row blocks are cut
    into contiguous ranges, one per usable CPU (at most one per block).  The
    first range is handled here, each later one by a forked worker, and
    every process asks ``rows`` only for the blocks it formats: a streamed
    run is propagated once, on every core, and no process holds more than a
    block of it.  A worker writes its text to a temporary file, copied to
    ``fh`` in order, and sends its closure error through a pipe.  A worker
    that fails raises OSError, and no worker outlives the call.  The bytes
    and the error are the same for any worker count.
    """
    # the header alone when there are no rows
    starts = range(0, max(count, 1), _CSV_BLOCK_ROWS)
    k = min(_usable_cpus(), len(starts))
    ranges = [starts[i * len(starts) // k:(i + 1) * len(starts) // k] for i in range(k)]
    with contextlib.ExitStack() as files:
        read_end, write_end = os.pipe()
        files.callback(os.close, read_end)
        files.callback(os.close, write_end)
        workers = []  # (file, pid) per later range; pid None where the fork failed
        try:
            for r in ranges[1:]:
                tmp = files.enter_context(tempfile.TemporaryFile())
                workers.append((tmp, _fork_writer(rows, count, r, tmp.fileno(), write_end)))
            errors = [_write_blocks(rows, count, ranges[0], fh.write)]
        finally:
            statuses = [(pid, os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1]))
                        for _, pid in workers if pid is not None]
        for pid, code in statuses:
            if code:
                raise OSError(f"CSV worker {pid} exited with status {code}")
        # each worker wrote its 8 bytes in one write before it exited
        errors.extend(np.frombuffer(os.read(read_end, 8 * len(statuses)), np.float64))
        for r, (tmp, pid) in zip(ranges[1:], workers):
            if pid is None:
                errors.append(_write_blocks(rows, count, r, fh.write))
                continue
            tmp.seek(0)  # the worker moved the offset it shares with tmp
            while chunk := tmp.read(1 << 20):
                fh.write(chunk.decode("ascii"))
    return float(np.max(errors))


def _usable_cpus() -> int:
    """CPUs this process may run on; 1 where it cannot fork workers."""
    if not hasattr(os, "fork"):
        return 1
    if hasattr(os, "sched_getaffinity"):
        return len(os.sched_getaffinity(0))
    return os.cpu_count() or 1


def _write_blocks(rows, count: int, starts: range, write) -> float:
    """Format the blocks at ``starts``; their largest closure error."""
    errors = []
    for lo in starts:
        block = rows(lo, min(lo + _CSV_BLOCK_ROWS, count))
        # the module-level name is looked up per block, so a wrapper installed
        # on it sees every block
        write(trajectory_to_csv(block, lo == 0))
        errors.append(block.closure_error)
    return float(np.max(errors))


def _fork_writer(rows, count: int, starts: range, fd: int, pipe: int) -> int | None:
    """Pid of a forked worker writing the blocks at ``starts`` to ``fd`` and
    their closure error to ``pipe``, or None when the fork fails.  The
    worker leaves only through ``os._exit``: it never returns into the
    caller or flushes inherited stdio; one that fails names why on fd 2."""
    try:
        pid = os.fork()
    except OSError:
        return None
    if pid:
        return pid
    status = 1
    try:
        with open(fd, "w", encoding="ascii", newline="", closefd=False) as out:
            error = _write_blocks(rows, count, starts, out.write)
        os.write(pipe, np.float64(error).tobytes())
        status = 0
    except Exception as exc:
        os.write(2, f"error: CSV worker: {type(exc).__name__}: {exc}\n".encode(errors="replace"))
    finally:
        os._exit(status)


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

