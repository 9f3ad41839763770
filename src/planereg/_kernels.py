"""Numpy kernels for the 3x3x3 convolution and 2x2x2 max-pooling primitives.

Every kernel splits its batch into one task per sample and hands the tasks
to :func:`_map_tasks`.  That runs them on one lazily built thread pool with
a worker per CPU this process may use (``os.sched_getaffinity``).  Workers
take tasks from a queue, so a core that stalls delays only the sample it
holds; a static split would make every call wait for it.  A call runs its
tasks inline, on the calling thread, when it has one task (B=1 inference)
or when a task's largest per-sample array has fewer than ``_MIN_TASK``
elements.  Such tasks gain nothing from a second core: with every call
pooled, the benchmark's 32^3 cross-validation at B=4 was no faster (1064
and 953 ms, against 962 and 984 ms) and peaked at 59.3 and 60.6 MB,
against 55.4 and 55.3 MB (seed 4, 2 vCPUs).  Each task
runs in a copy of the caller's context, so the caller's ``np.errstate``
holds in the workers too.  A forked child builds a pool of its own on first
use, since it inherits the parent's executor but none of its threads.

Before it starts its workers, the pool sets glibc's ``M_ARENA_MAX`` to 1,
so threads started from then on allocate from the main malloc arena.  With
an arena per worker, what a worker frees stays in its arena, where the
calling thread cannot reuse it: the benchmark's 72^3 B=8 training peaked at
444.5 MB, against 424.5 MB on one thread with one 8 MB column buffer.  With
one arena and 4 MB column buffers it peaks at 427.3 MB (seed 5).

The convolution is lowered to matrix products (im2col) one slab of output
depths at a time.  For the ``n`` depths of a slab, the 27 shifted slices of
the sample's zero-padded input are copied into a ``(C*27, n*H*W)`` column
matrix, and ``w.reshape(O, C*27)`` times that matrix is the slab of the
output.  A slab holds ``dz = _SLAB // (C*27*H*W)`` depths (at least one, at
most ``D``), so the buffer holds at most about 4 MB in float32 unless one
depth alone needs more, and a slab is multiplied while its columns are still
warm in cache.  Each task allocates its own padded input and one column
buffer of that fixed size, which serves every slab of its sample, so two
workers hold as much column memory as one 8 MB buffer; no call maps a whole
sample's or batch's columns.

A task's weight gradient sums ``cols @ gout_slab.T`` over its slabs in
order, and the call sums the tasks' partial gradients in sample order.  The
input gradient is the adjoint of the lowering (col2im): for each slab,
``w.T @ gout_slab`` is written into the same column buffer, and its 27 taps
are scatter-added into the task's zeroed, padded gradient, whose interior
is the sample's input gradient.

The slab depth depends on ``C``, ``D``, ``H`` and ``W`` only, never on the
batch size, and each sample's output and input gradient depend only on that
sample.  So a sample's rows are summed in the same order, and come out
bitwise identical, whatever the batch, and every result is bitwise the same
inline or pooled, whatever the worker count or the order the tasks ran in.

Max pooling folds the eight stride-2 views of each sample, in ``(a, b, c)``
offset order, with ``np.maximum``.  The backward pass zeroes the sample's
gradient and walks the views in the same order, and each view claims the
outputs it equals that no earlier view claimed, so the gradient goes to the
first maximum of each block.  For a fixed input every result is bitwise
deterministic.

Importing this module sets numpy's OpenBLAS, if that is its BLAS, to one
thread for the whole process, so each pool worker's products run on its
own thread and no more threads are busy than there are CPUs.  A product
split over BLAS threads waits for the slowest of them, and an idle BLAS
thread spins on a core after each call, so on shared cores one busy
neighbour stalls every step.  On 2 vCPUs with one core kept busy, a 72^3
B=8 training epoch took 1.8-2.1x its idle time with two BLAS threads and
1.1-1.2x with one; idle, one thread was no slower.
"""

from __future__ import annotations

import contextvars
import ctypes
import os
import threading
from concurrent.futures import ThreadPoolExecutor

import numpy as np

_OFFSETS = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
_TAPS = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
_SLAB = 1 << 20  # elements in a task's column buffer: 4 MB in float32
_MIN_TASK = 1 << 18  # elements of a task's largest map below which a call runs inline: 1 MB in float32

_M_ARENA_MAX = -8  # glibc's mallopt parameter number

_pool = None
_pool_pid = None
_pool_lock = threading.Lock()


def _pin_openblas_to_one_thread() -> bool:
    """Set the OpenBLAS that numpy loaded to one thread; False if none is found."""
    # numpy loads its BLAS with local symbols, so reach it through the mapped file
    try:
        with open("/proc/self/maps", encoding="utf-8") as fh:
            fields = [line.split(maxsplit=5) for line in fh if "openblas" in line]
    except OSError:
        return False
    for path in sorted({f[5].strip() for f in fields if len(f) == 6}):
        try:
            lib = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("scipy_openblas_set_num_threads64_", "scipy_openblas_set_num_threads",
                     "openblas_set_num_threads64_", "openblas_set_num_threads"):
            set_threads = getattr(lib, name, None)
            if set_threads is not None:
                set_threads(1)
                return True
    return False


_pin_openblas_to_one_thread()


def _share_malloc_arena() -> None:
    """Make threads started from now on allocate from glibc's main arena, if glibc is the malloc."""
    mallopt = getattr(ctypes.CDLL(None), "mallopt", None)
    if mallopt is not None:
        mallopt.argtypes = (ctypes.c_int, ctypes.c_int)
        mallopt.restype = ctypes.c_int
        mallopt(_M_ARENA_MAX, 1)


def _executor() -> ThreadPoolExecutor:
    """This process's pool, built on first use and again in a forked child."""
    global _pool, _pool_pid
    with _pool_lock:
        # a forked child inherits the executor but none of its threads
        if _pool is None or _pool_pid != os.getpid():
            _share_malloc_arena()
            _pool = ThreadPoolExecutor(max_workers=len(os.sched_getaffinity(0)), thread_name_prefix="planereg")
            _pool_pid = os.getpid()
        return _pool


def _map_tasks(fn, n: int, size: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, on the pool unless ``n == 1`` or ``size < _MIN_TASK``.

    ``size`` is the element count of one task's largest array.  Each pooled
    task runs in a copy of the caller's context, so it sees the caller's
    ``np.errstate``.  If tasks raise, the exception of the first of them in
    index order is raised here.
    """
    if n == 1 or size < _MIN_TASK:
        return [fn(i) for i in range(n)]
    pool = _executor()
    futures = [pool.submit(contextvars.copy_context().run, fn, i) for i in range(n)]
    return [f.result() for f in futures]


def _column_slabs(xs, dtype):
    """Yield ``(z0, n, cols)`` for each slab of output depths of the sample ``xs``.

    ``xs`` is one ``(C, D, H, W)`` sample.  ``cols`` is the ``(C*27, n*H*W)``
    column matrix of the ``n`` depths from ``z0`` on: row ``c*27 + t`` holds
    channel ``c`` of the zero-padded sample shifted by tap ``t``.  Every
    matrix is a view of one buffer that serves every slab of the sample, so
    it is valid, and may be overwritten, only until the next one is drawn.
    """
    C, D, H, W = xs.shape
    dz = max(1, min(D, _SLAB // (C * 27 * H * W)))
    xpad = np.zeros((C, D + 2, H + 2, W + 2), dtype=dtype)
    xpad[:, 1:-1, 1:-1, 1:-1] = xs
    buf = np.empty(C * 27 * dz * H * W, dtype=dtype)
    for z0 in range(0, D, dz):
        n = min(dz, D - z0)
        cols = buf[: C * 27 * n * H * W].reshape(C, 27, n, H, W)
        for t, (i, j, k) in enumerate(_TAPS):
            cols[:, t] = xpad[:, z0 + i : z0 + i + n, j : j + H, k : k + W]
        yield z0, n, cols.reshape(C * 27, n * H * W)


def conv3d_forward(x, w, bias):
    """3x3x3 convolution, stride 1, zero padding 1.

    ``x`` is ``(B, C, D, H, W)``, ``w`` is ``(O, C, 3, 3, 3)``; returns
    ``(B, O, D, H, W)``.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    dtype = np.result_type(x, w, bias)
    w2 = w.reshape(O, -1).astype(dtype, copy=False)
    b = bias.astype(dtype, copy=False)[:, None]
    rows = np.empty((B, O, D * H * W), dtype=dtype)

    def sample(s):
        for z0, n, cols in _column_slabs(x[s], dtype):
            np.matmul(w2, cols, out=rows[s, :, z0 * H * W : (z0 + n) * H * W])
        rows[s] += b

    _map_tasks(sample, B, max(C, O) * D * H * W)
    return rows.reshape(B, O, D, H, W)


def conv3d_backward(x, w, gout, need_gx: bool = True):
    """Gradients of :func:`conv3d_forward` w.r.t. input, weights, and bias.

    Pass ``need_gx=False`` to skip the input gradient (first layer); it is
    then returned as ``None``.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    dtype = np.result_type(x, w, gout)
    w2t = w.reshape(O, C * 27).astype(dtype, copy=False).T
    g2 = gout.reshape(B, O, D * H * W)
    gx = np.empty(x.shape, dtype=dtype) if need_gx else None

    def sample(s):
        gwt = np.zeros((C * 27, O), dtype=dtype)
        gpad = np.zeros((C, D + 2, H + 2, W + 2), dtype=dtype) if need_gx else None
        for z0, n, cols in _column_slabs(x[s], dtype):
            gslab = g2[s, :, z0 * H * W : (z0 + n) * H * W]
            # np.dot, not matmul: on two threads, matmul's thin products with
            # an output as small as 27 x 8 ran no faster than on one
            gwt += np.dot(cols, gslab.T)
            if not need_gx:
                continue
            # col2im: the slab's column gradient, scattered back one tap at a time
            np.matmul(w2t, gslab, out=cols)
            taps = cols.reshape(C, 27, n, H, W)
            for t, (i, j, k) in enumerate(_TAPS):
                gpad[:, z0 + i : z0 + i + n, j : j + H, k : k + W] += taps[:, t]
        if need_gx:
            gx[s] = gpad[:, 1:-1, 1:-1, 1:-1]
        return gwt

    partials = _map_tasks(sample, B, max(C, O) * D * H * W)
    gwt = partials[0]
    for p in partials[1:]:
        gwt += p
    return gx, gwt.T.reshape(w.shape), gout.sum(axis=(0, 2, 3, 4))


def _views(x):
    """The eight stride-2 views of ``x``'s even-sized corner, in offset order."""
    D2, H2, W2 = (n // 2 * 2 for n in x.shape[-3:])
    return [x[..., a:D2:2, b:H2:2, c:W2:2] for a, b, c in _OFFSETS]


def maxpool3d_forward(x):
    """2x2x2 max pooling with stride 2 (odd trailing slices are dropped)."""
    B, C, D, H, W = x.shape
    out = np.empty((B, C, D // 2, H // 2, W // 2), dtype=x.dtype)

    def sample(s):
        views = _views(x[s])
        np.maximum(views[0], views[1], out=out[s])
        for v in views[2:]:
            np.maximum(out[s], v, out=out[s])

    _map_tasks(sample, B, C * D * H * W)
    return out


def maxpool3d_backward(x, out, gout):
    """Gradient of :func:`maxpool3d_forward`, routed to each block's first maximum.

    ``x`` is the pooled input and ``out`` its pooled output.  Dropped odd
    trailing slices get zero gradient, and so does a block whose maximum is
    NaN, since NaN equals nothing.
    """
    gx = np.empty(x.shape, dtype=gout.dtype)

    def sample(s):
        gx[s] = 0
        unclaimed = np.ones(out.shape[1:], dtype=bool)
        for v, gv in zip(_views(x[s]), _views(gx[s])):
            hit = v == out[s]
            hit &= unclaimed
            np.copyto(gv, gout[s], where=hit)
            unclaimed ^= hit

    _map_tasks(sample, x.shape[0], x[0].size)
    return gx
