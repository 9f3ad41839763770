"""Numpy kernels for the fused conv block: 3x3x3 convolution, 2x2x2 max pooling and ReLU in one op.

Both kernels split their batch into tasks and hand them to
:func:`_map_tasks`, which runs them on one lazily built thread pool with a
worker per CPU this process may use (``os.sched_getaffinity``).  Workers
take tasks from a queue, so a core that stalls delays only the task it
holds; a static split would make every call wait for it.  A call runs its
tasks inline, on the calling thread, when its tasks are small, when it has
only one, when the process may use one CPU, or when it is made from inside
a pooled task (say, a resample inside one of ``harness.train``'s pooled
batch fills): a task that waited there on tasks queued behind it could
stall every worker.  A block's task is small below ``_MIN_MACS`` (2^23)
multiply-adds of its conv.  ``harness.train`` runs its batch fill through
the same pool, one task per batch row, and ``_MIN_TASK`` now governs only
that fill: a row is small below ``_MIN_TASK`` elements.

A forward makes one task per sample, unless its batch has fewer samples
than the pool has workers.  Then :func:`_split_parts` splits each sample's
output depths into near-equal contiguous ranges of whole pairs of depths,
as many as there are workers per sample, but no more than the sample has
slabs (below) at the full ``_SLAB``, and none below ``_MIN_MACS``.  Each range's column and product buffers are
sized from ``_SLAB // parts``, so the call holds no more of them than one
unsplit task, and a split sample's tasks read one padded input that the
call builds before they start.  On 2 workers that splits the B=1 forwards
of the benchmark's first three 72^3 blocks, whose sample holds 80.6 M
multiply-adds in 9, 6 and 2 slabs; the last two blocks fit in one slab and
stay inline (split in two anyway, the fourth block's B=1 forward took 1.21
against 0.91 ms, before the k taps were folded).  The third block's fused
forward splits its 18 pooled depths 8 and 10; cut at the starts of its
slabs, as before, it split them 6 and 12 and took 1.47-1.67 ms.  Timed
alone (one process, 2 vCPUs, median of 40), the first three fused B=1
forwards took 5.0-5.2, 3.4-3.7 and 1.32-1.33 ms split against 6.2, 4.3-4.4
and 1.72-1.76 ms inline: 1.20-1.32x, not 2x, since the slabs stream their
columns from memory.  A backward keeps one task per sample, so weight
gradients still sum in sample order.

Counting multiply-adds, every conv block of the benchmark's 72^3 network
(channels 8-128) pools at B=8: its smallest task, the last block's (64 to
128 channels at 4^3), is 14.2 M.  By the element rule alone, its last three
blocks would run inline.  Every block of the 32^3 cross-validation network
(channels 4/8/16) stays inline at B=4, and at B=1: its largest task is 3.5
M.  Such tasks gain nothing from a second core: with every call pooled,
that cross-validation was no faster (1064 and 953 ms, against 962 and 984
ms) and peaked at 59.3 and 60.6 MB, against 55.4 and 55.3 MB (seed 4, 2
vCPUs).  Each task runs in a copy of the caller's context, so the caller's
``np.errstate`` holds in the workers too.  A forked child builds a pool of
its own on first use, since it inherits the parent's executor but none of
its threads.

Before it starts its workers, the pool sets glibc's ``M_ARENA_MAX`` to 1,
so threads started from then on allocate from the main malloc arena.  With
an arena per worker, what a worker frees stays in its arena, where the
calling thread cannot reuse it: the benchmark's 72^3 B=8 training peaked at
444.5 MB, against 424.5 MB on one thread with one 8 MB column buffer.  With
one arena and 4 MB column buffers it peaked at 427.3 MB (seed 5), when each
block still ran as three ops.

Both passes of the convolution lower to matrix products (im2col) on the
padded-plane grid, one slab of output depths at a time.  Each sample is
zero-padded to ``(C, D+3, H+2, W+2)`` and flattened per channel, so tap
``(i, j, k)`` is the flat offset ``i*P + j*(W+2) + k``, with ``P =
(H+2)*(W+2)``, and a slab of ``n`` depths has one column per point of its
``n`` padded planes: output ``(z, y, x)`` is column ``(z - z0)*P + y*(W+2)
+ x``, and the columns with ``y >= H`` or ``x >= W`` are the border, which
belongs to no output.  The one spare zero plane is what the last slab's
taps reach: its last column plus the largest offset is ``(D+2)*P + 2*W +
5``, which is below ``(D+3)*P``.  So each tap's im2col copy, and the
backward's col2im add, is one contiguous run per channel; copying the
shifted ``(n, H, W)`` boxes instead moves rows of ``W`` elements.  The grid
costs ``P/(H*W)`` times the columns: 1.11x at 36^2, 2.25x at 4^2.

On this grid tap ``(i, j, k)``'s run is tap ``(i, j, 0)``'s, shifted by
``k`` columns.  So for an input of several channels each column row serves
three taps (Cho and Brand, 2017, "MEC: Memory-efficient Convolution for Deep
Neural Network"): :func:`_plane_slabs` copies only the 9 ``(i, j, 0)`` taps
per channel, each ``n*P + 2`` long, and tap ``(i, j, k)`` reads a row's
columns from ``k`` on.  The weights go into one stacked ``(3*O, C*9)``
matrix (:func:`_stacked`), whose row block ``k`` holds ``w[:, :, :, :,
k]``.  The forward (:func:`_map_forward`) multiplies it by the slab's
columns into a ``(3*O, n*P + 2)`` stacked product and adds blocks 1 and 2,
shifted by 1 and 2 columns, in that order, into block 0 in place; block 0's
first ``n*P`` columns are then the slab's convolution.  The backward
(:func:`_sample_gradients`) writes the slab's zero-bordered gradient,
``gext``, into block 0 of a ``(3*O, dz*P + 2)`` gradient stack, whose rows
keep that fixed stride for every slab, and copies it into blocks 1 and 2
shifted by 1 and 2 columns.  Then one ``np.dot`` of the columns with the
stack gives the stacked weight gradient, one ``np.matmul`` of the stacked
weights with it gives the column gradient, and col2im adds 9 runs per
channel instead of 27.  A slab shorter than the deepest leaves the previous
slab's gradient in block 0's two columns past its ``n*P``, so each slab
zeroes them first; the shifted copies carry those zeros.  The border
columns of ``gext`` are zero, so, for finite operands, they add nothing to
either gradient.  The call sums the tasks' weight gradients in sample
order.

A one-channel input keeps one row per tap: :func:`_shifts` is 1, and the
same code copies 27 rows of ``n*P`` columns and multiplies ``(O, 27)``
weights, bitwise the unfolded lowering.  Folded too, the first 72^3 block
(1 to 8 channels, so an inner dimension of 9) was slower: per sample on one
thread (median of 30 forwards and 20 backwards), its fused forward took
9.45 against 7.9-8.1 ms and its backward 14.7 against 12.2-12.8 ms.
Folding took the second block's fused forward from 7.0-7.3 to 4.9-5.1 ms
and its backward from 12.9-13.4 to 9.1-9.4 ms, the third's from 3.1-3.2 to
1.9-2.0 ms and from 4.6-4.7 to 3.5-3.6 ms, and the fourth's from 0.91-0.93
to 0.79-0.80 ms and from 2.0 to 1.55 ms; the fifth's forward went from 0.49
to 0.55 ms and its backward from 1.10 to 1.05 ms.

A slab holds ``dz`` depths (:func:`_slab_depth`) such that its column rows
and stacked product rows, ``(C*9 + 3*O)*dz*P`` elements, fit ``_SLAB``; a
one-channel input counts its ``27*dz*P`` column elements alone, as it did
before the fold.  Depths pool in pairs, so ``dz`` is rounded down to even,
and is at least 2, and the slabs cover the ``D // 2 * 2`` depths that the
pooling reads.  So the buffers hold at most about 5 MB in float32 unless
two depths alone need more, and a slab is multiplied while its columns are
still warm in cache.  Each task allocates
one column buffer and one product or gradient stack of that fixed size,
which serve every slab of its range, so two workers hold about as much
buffer memory as one 10 MB buffer; no call maps a whole sample's or batch's
columns.  The benchmark's five 72^3 blocks take slabs of 8, 6, 12, 8 and 4
depths, so 9, 6, 2, 1 and 1 slabs per sample.  Counting the columns alone, the benchmark's 72^3 B=8 training peaked at
167.8 and 169.2 MB (seeds 1 and 2) at the same speed; counting both, at
161.3 and 162.0 MB, against a median of 162.7 MB unfolded.

Each output element of a forward is the sum, in ``k`` order, of ``S``
dot products of length ``C*27/S`` (``S = _shifts(C)``).  For ``S = 3`` this
is another summation order than the unfolded lowering's, and the outputs
differ from it in float32 rounding.  The split changes the slab depths, and
so how many columns each product multiplies, but in the OpenBLAS that numpy
ships not the order of any of those dot products: for the benchmark's five
72^3 blocks, with the first-maximum record on and off, a split B=1 forward
is bitwise row 0 of a B=2 call on 1, 2 and 3 workers.  A backward's slab
depths depend on ``C``, ``O``, ``D``, ``H`` and ``W``
only, never on the batch size.  Each sample's output and input gradient
depend only on that sample.  So a sample's rows come out bitwise identical
whatever the batch, and every result is bitwise the same inline or pooled,
whatever the worker count or the order the tasks ran in.

The network runs each conv block, ``relu(maxpool3d(conv3d(x)))``, as one
fused op, and never allocates the conv output or its gradient (Alwani et
al., 2016, "Fused-Layer CNN Accelerators").  :func:`conv_block_forward`
folds each slab's product, while it is still in cache, over its eight
stride-2 views, in ``(a, b, c)`` offset order (``_OFFSETS``) and with
``np.maximum``, into the slab's ``n/2`` pooled depths.  Then the bias goes
on, to the pooled eighth of the values, and the ReLU after it.  Rounding is
monotone, so ``max(p) + b`` is bitwise ``max(p + b)``.  Adding the bias to
the whole slab before the max made a 72^3 B=1 ``predict`` 1.5% slower
(median 18.4 against 18.1 ms, 2 vCPUs).  The odd
trailing depth is never computed; the odd trailing row and column are
computed but never read.  All three get zero gradient.  For a fixed input
every result is bitwise deterministic.  The engine's ``conv3d`` and
``maxpool3d`` are direct references for the block, outside these kernels;
through autodiff they agree with it to rounding.

When the tape is on (``record``), the fold also writes ``first``, a uint8
array of the pooled shape: per pooled output, the offset index of its
block's first maximum.  A later view claims a block only by exceeding the
running maximum, and codes only grow along the fold, so each claim is a
``np.maximum`` of codes, without a branch.  The first maximum is taken on
the raw sums, before the bias: where two sums differ but round to one
biased value, pooling the biased conv output routes the gradient to the
earlier voxel, and the fused block to the larger sum.  A block whose
maximum is NaN gets a code, but its output is NaN, so the ReLU mask routes
it nothing.  The record costs ``first`` (a quarter of the pooled output's bytes in
float32) and a few uint8 passes; inference records nothing.

:func:`conv_block_backward` runs each sample's slabs through
:func:`_sample_gradients`.  For each slab, its fill (:func:`_block_fill`)
masks the pooled gradient by ``out > 0`` (the ReLU), zeroes ``gext`` and puts each value at its block's
first maximum with one ``np.put``, so the other seven voxels of each block
get +0.  The index of a value is its block's corner in the flat ``gext``
rows plus the padded-plane offset of its code; :func:`_block_corners` builds
the corners once per call and slab length, and every task reads them.  The
put goes into the flat view of block 0's rows, which are contiguous in the
stack's buffer: the slab's ``(O, n*P)`` planes are not, for ``S = 3`` or a
short slab, since the rows keep the stride ``dz*P + S-1``, and a put on
them would copy and write back.  Per 72^3 sample on one thread (median of
30), the first block's backward took 8.4 ms against 12.6 ms with a fill of
eight ``np.where(code == k, live, 0)`` passes and eight strided writes; the
gradients are bitwise the same.  The shifted copies and the three products
above follow unchanged.  The bias gradient is the sum of the masked pooled
gradient, per slab, and the tasks' sums are added in sample order.  Traced
over one 72^3 B=8 training step (2 vCPUs), the peak allocation fell from
323 MiB with three ops, which held block 0's 91 MiB conv output and its
gradient together, to 57.5 MiB.

``_SLAB`` is 5 MB rather than 4 because of the even rule: before the fold,
when it counted the columns alone, 4 MB cut the second 72^3 block's slabs
from 3 depths to 2.  One B=8 training step
(forward and backward, one process, 2 vCPUs) took 291-317 ms with 4 MB
slabs and 250-258 ms with 5 MB, against 329-386 ms for three-op blocks
with 4 MB slabs.  B=1 ``predict``'s traced peak grew from 7.5 to 8.9 MiB,
against 18.1 MiB with three ops.

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
from concurrent.futures import ThreadPoolExecutor, wait

import numpy as np

_OFFSETS = [(a, b, c) for a in range(2) for b in range(2) for c in range(2)]
_TAPS = [(i, j, k) for i in range(3) for j in range(3) for k in range(3)]
_SLAB = 5 << 18  # elements in a task's column buffer: 5 MB in float32
_MIN_TASK = 1 << 18  # elements of a batch-fill task's largest array below which a call runs inline: 1 MB in float32
_MIN_MACS = 1 << 23  # multiply-adds of a conv block's task below which its call runs inline

_M_ARENA_MAX = -8  # glibc's mallopt parameter number

_pool = None
_pool_pid = None
_pool_lock = threading.Lock()
_in_task = contextvars.ContextVar("planereg_in_task", default=False)  # set in every pooled task's context


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


def _worker_count() -> int:
    """The number of CPUs this process may use, and so of the pool's workers."""
    return len(os.sched_getaffinity(0))


def _executor() -> ThreadPoolExecutor:
    """This process's pool, built on first use and again in a forked child."""
    global _pool, _pool_pid
    with _pool_lock:
        # a forked child inherits the executor but none of its threads
        if _pool is None or _pool_pid != os.getpid():
            _share_malloc_arena()
            _pool = ThreadPoolExecutor(max_workers=_worker_count(), thread_name_prefix="planereg")
            _pool_pid = os.getpid()
        return _pool


def _map_tasks(fn, n: int, size: int, min_size: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, inline if ``size < min_size``, else through :func:`_run_tasks`.

    ``size`` measures one task's work, in the unit of ``min_size``: a conv
    block passes its multiply-adds and ``_MIN_MACS``, ``harness.train``'s
    batch fill the element count of one batch row and ``_MIN_TASK``.
    """
    if size < min_size:
        return [fn(i) for i in range(n)]
    return _run_tasks(fn, n)


def _run_tasks(fn, n: int) -> list:
    """``[fn(0), ..., fn(n - 1)]``, on the pool unless they would gain nothing there.

    The tasks run inline, on the calling thread, when there is only one of
    them, when the process may use only one CPU, or when the caller is
    itself a pooled task: waiting there on tasks queued behind it could
    stall every worker.  Each pooled task runs in a copy of the caller's
    context, so it sees the caller's ``np.errstate``.  If tasks raise, the
    exception of the first of them in index order is raised here, once
    every task has finished, so none still writes into the caller's arrays.
    """
    if n < 2 or _in_task.get() or _worker_count() < 2:
        return [fn(i) for i in range(n)]
    pool = _executor()
    futures = [pool.submit(_task_context().run, fn, i) for i in range(n)]
    wait(futures)
    return [f.result() for f in futures]


def _task_context() -> contextvars.Context:
    """A copy of the caller's context, marked as a pooled task's."""
    ctx = contextvars.copy_context()
    ctx.run(_in_task.set, True)
    return ctx


def _shifts(C):
    """How many ``k`` taps one product row serves: 3 for an input of several channels, 1 for one."""
    return 3 if C > 1 else 1


def _row_offsets(H, W, S):
    """The padded-plane offsets of the taps the column rows start from: all 27 at ``S = 1``, ``(i, j, 0)`` at ``S = 3``."""
    return [(i * (H + 2) + j) * (W + 2) + k for i, j, k in _TAPS[::S]]


def _stacked(w, dtype):
    """The ``(S*O, C*27/S)`` weight matrix of ``(O, C, 3, 3, 3)`` weights: row block ``k`` holds ``w[..., k::S]``."""
    O, C = w.shape[:2]
    S = _shifts(C)
    return w.astype(dtype, copy=False).reshape(O, C, 27 // S, S).transpose(3, 0, 1, 2).reshape(S * O, C * 27 // S)


def _unstacked(gst, shape):
    """The ``(C*27/S, S*O)`` gradient of :func:`_stacked`'s matrix, transposed, as weights of ``shape``."""
    O, C = shape[:2]
    S = _shifts(C)
    return gst.reshape(C, 27 // S, S, O).transpose(3, 0, 1, 2).reshape(shape)


def _slab_depth(shape, O, budget):
    """``(depths, dz)`` for one ``(C, D, H, W)`` sample, ``O`` output channels and ``budget`` buffer elements.

    The slabs cover the ``D // 2 * 2`` depths that the 2x2x2 pooling reads,
    ``dz`` at a time and fewer in the last; ``dz`` is even, at least two,
    since depths pool in pairs.  A depth costs its ``C*9`` column rows and
    ``3*O`` stacked product rows, or, for one input channel, its 27 column
    rows alone.
    """
    C, D, H, W = shape
    S = _shifts(C)
    rows = C * 27 if S == 1 else C * 9 + S * O
    depths = D // 2 * 2
    return depths, max(2, min(depths, budget // (rows * (H + 2) * (W + 2))) // 2 * 2)


def _padded(xs, dtype):
    """One ``(C, D, H, W)`` sample zero-padded to ``(C, D+3, H+2, W+2)`` and flattened per channel."""
    C, D, H, W = xs.shape
    xpad = np.zeros((C, D + 3, H + 2, W + 2), dtype=dtype)
    xpad[:, 1 : D + 1, 1:-1, 1:-1] = xs
    return xpad.reshape(C, -1)


def _plane_slabs(flat, shape, dz, lo, hi):
    """Yield ``(z0, n, cols)`` for each slab of ``dz`` output depths from ``lo`` to ``hi``, on the padded-plane grid.

    ``flat`` is the :func:`_padded` form of one ``(C, D, H, W)`` sample of
    ``shape``.  ``cols`` is the ``(C*27/S, n*P + S-1)`` column matrix, ``P =
    (H+2)*(W+2)`` and ``S = _shifts(C)``, of the ``n`` depths from ``z0``
    on, with one column per point of their padded planes: output ``(z, y,
    x)`` is column ``(z - z0)*P + y*(W+2) + x``.  Row ``c*27/S + t`` is one
    contiguous run of channel ``c``, from the flat offset of
    :func:`_row_offsets`' tap ``t`` on; at ``S = 3`` it serves taps ``(i,
    j, 0)``, ``(i, j, 1)`` and ``(i, j, 2)``, from its columns ``q``, ``q +
    1`` and ``q + 2``.  The columns of the border (``y >= H`` or ``x >=
    W``) belong to no output.  Every matrix is a view of one buffer that
    serves every slab of the range, so it is valid, and may be overwritten,
    only until the next one is drawn.
    """
    C, _, H, W = shape
    S = _shifts(C)
    P = (H + 2) * (W + 2)
    T = 27 // S  # rows per channel
    buf = np.empty(C * T * (min(dz, hi - lo) * P + S - 1), dtype=flat.dtype)
    offsets = _row_offsets(H, W, S)
    for z0 in range(lo, hi, dz):
        n = min(dz, hi - z0)
        m = n * P + S - 1
        cols = buf[: C * T * m].reshape(C, T, m)
        for t, off in enumerate(offsets):
            start = z0 * P + off
            cols[:, t] = flat[:, start : start + m]
        yield z0, n, cols.reshape(C * T, m)


def _split_parts(B, shape, O):
    """How many tasks each sample's forward slabs go to: one, unless the batch leaves workers idle.

    With fewer samples than workers, a sample is split into as many
    near-equal ranges of depths as there are workers per sample, but no
    more than it has slabs at the full ``_SLAB``, and none smaller than
    ``_MIN_MACS`` multiply-adds.
    """
    C, D, H, W = shape
    depths, dz = _slab_depth(shape, O, _SLAB)
    parts = min(_worker_count() // max(B, 1), -(-depths // dz))
    while parts > 1 and O * C * 27 * D * H * W < parts * _MIN_MACS:
        parts -= 1
    return max(parts, 1)


def _map_forward(x, wst, dtype, consume):
    """Call ``consume(s, z0, n, prod)`` for every slab of :func:`_slab_depth` of every sample of ``x``, in tasks.

    ``wst`` is the :func:`_stacked` weight matrix.  ``prod`` is the slab's
    ``(O, n, H+2, W+2)`` convolution without the bias, on its padded planes;
    its border rows and columns belong to no output.  It is row block 0 of
    the slab's stacked product, into which blocks ``k = 1, 2`` were added
    shifted by ``k`` columns, in that order.  It lives in one buffer that
    serves every slab of its task, so it is valid only until the next is
    drawn.  Each task covers one contiguous range of one sample's depths:
    the whole sample, or one of :func:`_split_parts`'s near-equal ranges
    of whole pairs of depths, whose buffers are sized from ``_SLAB //
    parts`` so that the call holds no more buffer memory than one unsplit
    task.  A split sample's tasks read one padded input, built before they
    start.
    """
    B, C, D, H, W = x.shape
    S = _shifts(C)
    O = wst.shape[0] // S
    P = (H + 2) * (W + 2)
    parts = _split_parts(B, x.shape[1:], O)
    depths, dz = _slab_depth(x.shape[1:], O, _SLAB // parts)
    edges = [depths // 2 * k // parts * 2 for k in range(parts + 1)]
    flats = [_padded(x[s], dtype) for s in range(B)] if parts > 1 else None

    def task(i):
        s, k = divmod(i, parts)
        flat = _padded(x[s], dtype) if flats is None else flats[s]
        ext = np.empty(S * O * (min(dz, edges[k + 1] - edges[k]) * P + S - 1), dtype=dtype)
        for z0, n, cols in _plane_slabs(flat, x.shape[1:], dz, edges[k], edges[k + 1]):
            stack = ext[: S * O * (n * P + S - 1)].reshape(S * O, n * P + S - 1)
            np.matmul(wst, cols, out=stack)
            prod = stack[:O, : n * P]
            for t in range(1, S):
                prod += stack[t * O : (t + 1) * O, t : t + n * P]
            consume(s, z0, n, prod.reshape(O, n, H + 2, W + 2))

    _map_tasks(task, B * parts, O * C * 27 * D * H * W // parts, _MIN_MACS)


def _sample_gradients(xs, wst, fill, need_gx, dtype):
    """One sample's convolution gradients, slab by slab: ``(gst, gxs)``.

    ``wst`` is the :func:`_stacked` weight matrix.  For each of
    :func:`_slab_depth`'s slabs at the full ``_SLAB``, ``fill(gext, z0, n)``
    writes the gradient of the slab's conv outputs into ``gext``, the
    C-contiguous ``(O, dz*P + S-1)`` rows of the gradient stack's block 0:
    row ``o``'s first ``n*P`` columns are output channel ``o``'s ``(n,
    H+2, W+2)`` padded planes, of which the fill writes the ``[:, :H, :W]``
    interior; what it leaves unwritten keeps what it held, which is zero
    unless a fill wrote it.  ``gst`` is the weight gradient as the
    transposed ``(C*27/S, S*O)`` stacked matrix (see :func:`_unstacked`) and
    ``gxs`` the ``(C, D, H, W)`` input gradient, or None without
    ``need_gx``.
    """
    C, D, H, W = xs.shape
    S = _shifts(C)
    O = wst.shape[0] // S
    P = (H + 2) * (W + 2)
    offsets = _row_offsets(H, W, S)
    depths, dz = _slab_depth(xs.shape, O, _SLAB)
    gst = np.zeros((C * 27 // S, S * O), dtype=dtype)
    gflat = np.zeros((C, (D + 3) * P), dtype=dtype) if need_gx else None
    # row block k is gext shifted right by k columns; every row keeps the deepest slab's stride
    gstack = np.zeros((S * O, dz * P + S - 1), dtype=dtype)
    gext = gstack[:O]
    for z0, n, cols in _plane_slabs(_padded(xs, dtype), xs.shape, dz, 0, depths):
        m = n * P + S - 1
        # a shorter slab's tail past its n planes still holds the previous slab's gradient
        gext[:, n * P : m] = 0
        fill(gext, z0, n)
        for t in range(1, S):
            gstack[t * O : (t + 1) * O, t:m] = gext[:, : m - t]
        gslab = gstack[:, :m]
        # np.dot, not matmul: on two threads, matmul's thin products with
        # an output as small as 27 x 8 ran no faster than on one
        gst += np.dot(cols, gslab.T)
        if not need_gx:
            continue
        # col2im: the slab's column gradient, added back one contiguous run per row tap and channel
        np.matmul(wst.T, gslab, out=cols)
        taps = cols.reshape(C, 27 // S, m)
        for t, off in enumerate(offsets):
            start = z0 * P + off
            gflat[:, start : start + m] += taps[:, t]
    if not need_gx:
        return gst, None
    return gst, gflat.reshape(C, D + 3, H + 2, W + 2)[:, 1 : D + 1, 1:-1, 1:-1]


def _sum_in_order(parts):
    """The sum of ``parts``, added in index order into the first of them."""
    total = parts[0]
    for p in parts[1:]:
        total += p
    return total


def conv_block_forward(x, w, bias, record: bool = False):
    """One conv block, 3x3x3 convolution, 2x2x2 max pooling and ReLU, slab by slab.

    Returns ``(out, first)``: ``out`` is ``(B, O, D//2, H//2, W//2)``, and
    ``first`` is None unless ``record``, when it is a uint8 array of
    ``out``'s shape holding each block's first-maximum offset (an index
    into ``_OFFSETS``) for :func:`conv_block_backward`.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    H2, W2 = H // 2 * 2, W // 2 * 2
    dtype = np.result_type(x, w, bias)
    b = bias.astype(dtype, copy=False)[:, None, None, None]
    out = np.empty((B, O, D // 2, H // 2, W // 2), dtype=dtype)
    first = np.empty(out.shape, dtype=np.uint8) if record else None

    def consume(s, z0, n, prod):
        q = slice(z0 // 2, (z0 + n) // 2)
        pooled = out[s, :, q]
        views = [prod[:, a:n:2, c:H2:2, e:W2:2] for a, c, e in _OFFSETS]
        np.maximum(views[0], views[1], out=pooled)
        if record:
            # the first maximum of the raw sums: a later view claims a block only by exceeding it
            code = first[s, :, q]
            np.greater(views[1], views[0], out=code)
            hit = np.empty(pooled.shape, dtype=bool)
            claim = hit.view(np.uint8)
        for k in range(2, 8):
            if record:
                # codes only grow, so a block that view k claims takes code k by a maximum, without a branch
                np.greater(views[k], pooled, out=hit)
                np.multiply(claim, k, out=claim)
                np.maximum(code, claim, out=code)
            np.maximum(pooled, views[k], out=pooled)
        # the bias goes on after the max, on an eighth of the values
        np.add(pooled, b, out=pooled)
        np.maximum(pooled, 0.0, out=pooled)

    _map_forward(x, _stacked(w, dtype), dtype, consume)
    return out, first


def _block_corners(shape, O):
    """``(delta, bases)``: where a fused block's pooled gradient goes in :func:`_sample_gradients`' stack.

    For one ``(C, D, H, W)`` sample of ``shape`` and ``O`` output channels,
    ``delta[k]`` is the padded-plane offset of ``_OFFSETS[k]``, and
    ``bases[n]``, for each slab length ``n`` of the backward's slabs, is the
    ``(O, n//2, H//2, W//2)`` array of each pooled output's block corner as
    an index into the flat ``gext`` rows, whose stride is ``dz*P + S-1``.
    """
    C, D, H, W = shape
    S = _shifts(C)
    P = (H + 2) * (W + 2)
    depths, dz = _slab_depth(shape, O, _SLAB)
    delta = np.array([a * P + c * (W + 2) + e for a, c, e in _OFFSETS], dtype=np.intp)
    bases = {}
    for z0 in range(0, depths, dz):
        n = min(dz, depths - z0)
        if n not in bases:
            o, z, y, x = np.ogrid[:O, : n // 2, : H // 2, : W // 2]
            bases[n] = o * (dz * P + S - 1) + z * (2 * P) + y * (2 * (W + 2)) + x * 2
    return delta, bases


def _block_fill(out, first, gout, gb, corners):
    """The ``fill`` of one sample's fused-block backward for :func:`_sample_gradients`.

    ``out``, ``first`` and ``gout`` are the sample's pooled output, its
    first-maximum codes and its pooled gradient, ``corners`` is
    :func:`_block_corners`' pair, and the fill adds each slab's bias
    gradient into ``gb``.  Each slab's pooled gradient is masked by ``out >
    0`` (the ReLU) and put at its block's first maximum in the zeroed
    ``gext``, so the block's other seven voxels get +0.
    """
    delta, bases = corners

    def fill(gext, z0, n):
        q = slice(z0 // 2, (z0 + n) // 2)
        # np.where, not a product: an inactive output passes +0, whatever its gradient
        live = np.where(out[:, q] > 0, gout[:, q], 0)
        np.add(gb, live.sum(axis=(1, 2, 3)), out=gb)
        idx = delta.take(first[:, q])
        idx += bases[n]
        # gext is C-contiguous, so its flat view puts in place
        flat = gext.reshape(-1)
        flat.fill(0)
        flat.put(idx, live)

    return fill


def conv_block_backward(x, w, out, first, gout, need_gx: bool = True):
    """Gradients of :func:`conv_block_forward` w.r.t. input, weights, and bias.

    ``out`` and ``first`` are what the forward returned with ``record``.
    Each pooled gradient where ``out > 0`` goes to its block's first
    maximum; every other conv output, the dropped odd trailing depth, row
    and column included, gets zero gradient.  Pass ``need_gx=False`` to skip
    the input gradient; it is then returned as ``None``.
    """
    B, C, D, H, W = x.shape
    O = w.shape[0]
    dtype = np.result_type(x, w, gout)
    wst = _stacked(w, dtype)
    gx = np.empty(x.shape, dtype=dtype) if need_gx else None
    corners = _block_corners(x.shape[1:], O)

    def sample(s):
        gb = np.zeros(O, dtype=gout.dtype)
        fill = _block_fill(out[s], first[s], gout[s], gb, corners)
        gst, gxs = _sample_gradients(x[s], wst, fill, need_gx, dtype)
        if need_gx:
            gx[s] = gxs
        return gst, gb

    parts = _map_tasks(sample, B, O * C * 27 * D * H * W, _MIN_MACS)
    gst = _sum_in_order([p[0] for p in parts])
    return gx, _unstacked(gst, w.shape), _sum_in_order([p[1] for p in parts])
