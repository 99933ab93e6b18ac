"""Compiled kernel primitives: the production kernel tier.

Every loop the paper's algorithms spend their time in runs here, over
int64 arrays, at C speed; the python loops of the reference tier
(:mod:`repro.paging.kernel`) are the no-compiler path and the oracle
each one is held to.  The loops:

* the reuse-distance sweep, one per-row step (``sweep_row``) under two
  entries.  The streaming window's append (``repro_stream_append``)
  keeps the window's columns, Fenwick tree and page table in one block
  the :class:`repro.paging.kernel.StreamKernel` owns, and a chunk costs
  O(chunk) work, amortized.  ``repro_sweep_columns`` sweeps whole
  columns of one int64 payload into one arena in one call: a
  ``SequenceKernel``'s sequence is its one-column case, and a streamed
  run sweeps every column its trace store holds as a single chunk
  straight from the store's memory map;
* the per-box service walk (a dict-LRU step per request in python),
* the offline green DP relaxation (a python loop over every reachable
  position × ladder level, with one box walk per step),
* GLOBAL-LRU's shared-cache event loop (in python, one LRU touch per
  request and a rescan of every processor per instant,
  :class:`repro.parallel.timestep.GlobalLRU`),
* DET-PAR's event loop (one python heap step, segment and box record per
  event, :class:`repro.core.det_par.DetPar`),
* RAND-PAR's chunk schedule (one python box call and record per box,
  :class:`repro.core.rand_par.RandPar`), and
* Belady's MIN (one python dict probe and heap step per request,
  :class:`repro.paging.belady.BeladySimulation`), under every certified
  lower bound.  Compiled, it is one call per column
  (``repro_min_run``) with its own page table and heap in scratch the
  call allocates.

The three simulator loops keep their state in int64 arrays the caller
owns, so a call returns to the caller when it needs python — GLOBAL-LRU
when a processor's chunk runs out; DET-PAR and RAND-PAR when a box runs
past a processor's window, their record buffer fills, or a phase
(DET-PAR) or chunk (RAND-PAR) ends — and resumes where it stopped; a
streamed run never holds more than one window per processor.  DET-PAR
and RAND-PAR share one window check and one box-and-record step.
The C code keeps no static or global state: ctypes releases the GIL, so
threads may run loops side by side.

This module compiles those loops from one small C translation unit with
the system C compiler (``$CC``, default ``cc``) into a content-addressed
shared library and loads it through :mod:`ctypes` (no third-party
dependency at all).  Every value it produces — box endpoints, DP
distances and parent pointers, GLOBAL-LRU completion times and counts,
DET-PAR's and RAND-PAR's completions and box records, MIN's fault
counts — is bit-identical to the python loops of the reference tier.
With ``$REPRO_KERNEL`` unset the kernel runs on this tier whenever the
library builds; when it cannot be built (no compiler) :func:`native_ops`
returns ``None`` and every caller runs its reference loop instead (see
:func:`repro.paging.kernel.kernel_backend`).  Whether it builds is
observed once per process, not chosen: ``REPRO_KERNEL=reference`` is
how a caller pins the python loops, and ``CC=false`` with an empty
cache is how CI simulates a host without a compiler.

The library is cached per user in
``$REPRO_NATIVE_CACHE`` (default ``$TMPDIR/repro-native-<uid>``,
created with mode 0700).  Its source is public, so its content-addressed
name is predictable: before writing into the cache or loading from it,
the directory and the library are checked with ``lstat`` — no symlink,
owned by the current user, not group- or other-writable.  If a check
fails, the library is built in a fresh :func:`tempfile.mkdtemp`
directory instead, with a :class:`RuntimeWarning`, and nothing in the
suspect directory is loaded.
"""

from __future__ import annotations

import ctypes
import functools
import hashlib
import os
import shutil
import stat
import subprocess
import sys
import tempfile
import threading
import warnings
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

import numpy as np

__all__ = ["NativeOps", "native_ops", "native_flavor", "clear_native_cache", "address"]

#: Environment variable overriding the cc build cache directory.
NATIVE_CACHE_ENV = "REPRO_NATIVE_CACHE"

_C_SOURCE = r"""
#include <stdint.h>
#include <string.h>

/* One box service walk: the reference loop over the precomputed hit
 * predicate.  Columns hold global previous-occurrence positions, so a
 * box from global position `start` walks column rows [i, n) and hits
 * iff prev >= start && reuse < height.  Returns the first row not
 * served; hits and time used go to *hits and *used.  A request fits
 * while c <= budget - t, which cannot overflow: t is 0, or served time
 * no greater than budget. */
static int64_t box_walk(const int64_t *prev, const int64_t *reuse, int64_t i,
                        int64_t n, int64_t start, int64_t height,
                        int64_t budget, int64_t s, int64_t *hits,
                        int64_t *used) {
    int64_t t = 0, h = 0, c;
    while (i < n) {
        c = (prev[i] >= start && reuse[i] < height) ? 1 : s;
        if (c > budget - t)
            break;
        t += c;
        h += (c == 1);
        i++;
    }
    *hits = h;
    *used = t;
    return i;
}

/* box_walk for python callers: (served, hits, time_used) into out3. */
void repro_box_run(const int64_t *prev, const int64_t *reuse, int64_t i,
                   int64_t n, int64_t start, int64_t height, int64_t budget,
                   int64_t s, int64_t *out3) {
    out3[0] = box_walk(prev, reuse, i, n, start, height, budget, s, out3 + 1,
                       out3 + 2) - i;
}

#define WIN_HOME(page) ((int64_t)(((uint64_t)(page) * 0x9E3779B97F4A7C15ULL) >> (64 - bits)))

/* One row of the reuse-distance sweep, the step repro_stream_append and
 * repro_sweep_columns share.  Row q of the page column holds global
 * position origin + q; rows before off are forgotten, and the Fenwick
 * tree (cap + 1 words) and page table (2^bits slots, *entries used) hold
 * rows [off, q).  Writes prev[q] and reuse[q] and enters row q.  Returns
 * 0, or 1 when a new page would fill the table past half: then row q
 * is not entered. */
static int sweep_row(const int64_t *page, int64_t *prev, int64_t *reuse, int64_t *tree,
                     int64_t cap, int64_t *table, int64_t bits, int64_t *entries,
                     int64_t off, int64_t origin, int64_t q, int64_t cold) {
    int64_t mask = ((int64_t)1 << bits) - 1, pg = page[q], j, x, y, acc;
    for (j = WIN_HOME(pg); table[j] && page[table[j] - 1] != pg;)
        j = (j + 1) & mask;
    x = table[j] - 1;
    if (x < off) {  /* first occurrence, or its last one was compacted */
        if (x < 0 && 2 * ++*entries > mask + 1)
            return 1;
        prev[q] = -1;
        reuse[q] = cold;
    } else {  /* distinct pages in (x, q): the gap minus its marks */
        prev[q] = origin + x;
        acc = q - 1 - x;
        for (y = q; y > 0; y -= y & -y)
            acc -= tree[y];
        for (y = x + 1; y > 0; y -= y & -y)
            acc += tree[y];
        reuse[q] = acc;
        for (y = x + 1; y <= cap; y += y & -y)
            tree[y] += 1;
    }
    table[j] = q + 1;
    return 0;
}

/* The streaming window (repro.paging.kernel.StreamKernel) in one
 * caller-owned block: 7 header words, then prev, reuse and page columns
 * of cap rows each, a Fenwick tree of cap + 1 and a page table.
 *   header  origin, first retained row, retained rows, cap, log2(table
 *           slots), table entries, dirty (rows moved or block replaced)
 *   prev    global previous occurrence, -1 when none is retained
 *   tree    marks the rows whose page recurs later
 *   table   page -> 1 + row of its latest occurrence (0 = empty),
 *           linear probing, at most half full
 * Column row r holds global position origin + r, and rows [first, first
 * + retained) are retained.  Appends m rows in O(m log cap).  When they
 * do not fit behind the window, the retained rows move to the front
 * first and the tree and table are rebuilt from them, which the
 * compactions behind them pay for.  Returns 0, or 1 when the table would
 * pass half full: then nothing retained has changed, and the caller
 * moves the window into a block with a table twice the size. */
int64_t repro_stream_append(int64_t *w, const int64_t *chunk, int64_t m, int64_t cold) {
    int64_t origin = w[0], off = w[1], n = w[2], cap = w[3], bits = w[4];
    int64_t mask = ((int64_t)1 << bits) - 1, entries = w[5], r, q, x, y, j;
    int64_t *prev = w + 7, *reuse = prev + cap, *page = reuse + cap;
    int64_t *tree = page + cap, *table = tree + cap + 1;
    if (w[6] || off + n + m > cap) {
        w[6] = 1;
        if (off) {
            memmove(page, page + off, n * sizeof(int64_t));
            memmove(prev, prev + off, n * sizeof(int64_t));
            memmove(reuse, reuse + off, n * sizeof(int64_t));
            w[0] = origin += off;
            w[1] = off = 0;
        }
        memset(tree, 0, (cap + 1) * sizeof(int64_t));
        memset(table, 0, (mask + 1) * sizeof(int64_t));
        for (entries = 0, r = 0; r < n; r++) {
            if (prev[r] >= origin)
                tree[prev[r] - origin + 1] = 1;
            for (j = WIN_HOME(page[r]); table[j] && page[table[j] - 1] != page[r];)
                j = (j + 1) & mask;
            if (!table[j] && 2 * ++entries > mask + 1)
                return 1;
            table[j] = r + 1;
        }
        for (x = 1; x <= cap; x++)
            if ((y = x + (x & -x)) <= cap)
                tree[y] += tree[x];
        w[5] = entries;
        w[6] = 0;
    }
    for (r = 0, q = off + n; r < m; r++, q++) {
        page[q] = chunk[r];
        if (sweep_row(page, prev, reuse, tree, cap, table, bits, &entries, off, origin, q, cold))
            return 1;
    }
    w[2] = n + m;
    w[5] = entries;
    return 0;
}

/* The reuse-distance sweep of whole columns in one call: column c is
 * data[start[c], start[c] + rows[c]), and its prev and reuse rows go to
 * prev and reuse back to back, column c from row rows[0] + ... +
 * rows[c - 1] on, in the column's own coordinates (a SequenceKernel's
 * rows).  scratch holds max(rows) + 1 + 2^b words, 2^b >= 2 max(rows):
 * each column's tree, and its table of 2^bits >= 2 rows[c] slots, which
 * a column of rows[c] pages never fills past half. */
void repro_sweep_columns(const int64_t *data, const int64_t *start, const int64_t *rows,
                         int64_t ncols, int64_t *prev, int64_t *reuse, int64_t *scratch,
                         int64_t cold) {
    int64_t c, n, q, bits, entries, at = 0, *table;
    for (c = 0; c < ncols; c++, at += n) {
        n = rows[c];
        for (bits = 1; ((int64_t)1 << bits) < 2 * n; bits++)
            ;
        table = scratch + n + 1;
        memset(scratch, 0, (n + 1 + ((int64_t)1 << bits)) * sizeof(int64_t));
        for (entries = 0, q = 0; q < n; q++)
            sweep_row(data + start[c], prev + at, reuse + at, scratch, n, table, bits,
                      &entries, 0, 0, q, cold);
    }
}

/* The whole offline green DP relaxation (repro.green.offline): ascending
 * positions, ascending ladder levels, strict-< improvement — the exact
 * tie-breaking of the python sweep, so distances and parent pointers
 * are bit-identical.  dist has length n + 1 with dist[0] = 0 and inf
 * elsewhere on entry; the caller keeps n * s * max(heights)^2 below inf,
 * so no distance overflows. */
void repro_dp_solve(const int64_t *prev, const int64_t *lev, int64_t n,
                    int64_t L, const int64_t *budgets, const int64_t *costs,
                    const int64_t *heights, int64_t s, int64_t inf,
                    int64_t *dist, int64_t *parent_pos, int64_t *parent_h) {
    int64_t q, l, d, budget, t, i, c, nd;
    for (q = 0; q < n; q++) {
        d = dist[q];
        if (d == inf)
            continue;
        for (l = 0; l < L; l++) {
            budget = budgets[l];
            t = 0;
            i = q;
            while (i < n) {
                c = (prev[i] >= q && lev[i] <= l) ? 1 : s;
                if (c > budget - t)  /* as in box_walk: no overflow */
                    break;
                t += c;
                i++;
            }
            nd = d + costs[l];
            if (nd < dist[i]) {
                dist[i] = nd;
                parent_pos[i] = q;
                parent_h[i] = heights[l];
            }
        }
    }
}

/* GLOBAL-LRU's event loop (repro.parallel.timestep.GlobalLRU._run_native)
 * over caller-owned state, so it can return when a processor's chunk runs
 * out and resume once the caller installs the next one:
 *   st    key, heap size, resident pages, MRU node, LRU node, hits,
 *         faults, evictions, capacity, log2(table slots)
 *   heap  min-heap of the waiting processors' `time << shift | proc` keys
 *   proc  4 per processor: requests left, chunk address, rows, next row
 *   table 2 per slot: page, node + 1 (0 = empty); at most half full,
 *         linear probing with backward-shift deletion
 *   node  3 per resident page: page, newer node, older node (-1 = none)
 * Returns the processor whose chunk ran out, or -1 once all are done. */
#define LRU_HOME(page) ((int64_t)(((uint64_t)(page) * 0x9E3779B97F4A7C15ULL) >> (64 - bits)))

static int64_t lru_find(const int64_t *table, int64_t bits, int64_t page) {
    int64_t j = LRU_HOME(page), mask = ((int64_t)1 << bits) - 1;
    while (table[2 * j + 1] && table[2 * j] != page)
        j = (j + 1) & mask;
    return j;
}

static void lru_unlink(int64_t *node, int64_t x, int64_t *mru, int64_t *lru) {
    int64_t newer = node[3 * x + 1], older = node[3 * x + 2];
    if (newer >= 0) node[3 * newer + 2] = older; else *mru = older;
    if (older >= 0) node[3 * older + 1] = newer; else *lru = newer;
}

int64_t repro_lru_run(int64_t shift, int64_t miss, int64_t *st, int64_t *heap,
                      int64_t *proc, int64_t *table, int64_t *node,
                      int64_t *completion) {
    int64_t key = st[0], hn = st[1], size = st[2], mru = st[3], lru = st[4];
    int64_t bits = st[9], mask = ((int64_t)1 << bits) - 1, hit = (int64_t)1 << shift;
    int64_t status = -1, top, page, i, j, k, h, x, m, *pr;
    const int64_t *col;
    for (;;) {
        i = key & (hit - 1);
        pr = proc + 4 * i;
        col = (const int64_t *)(intptr_t)pr[1];
        top = hn ? heap[0] : INT64_MAX;
        for (m = pr[0]; m; ) {
            if (pr[3] == pr[2]) {
                pr[0] = m;
                status = i;
                goto out;
            }
            page = col[pr[3]++];
            j = lru_find(table, bits, page);
            x = table[2 * j + 1] - 1;
            if (x >= 0) {  /* hit: the page's node moves to the front */
                st[5]++;
                key += hit;
                lru_unlink(node, x, &mru, &lru);
            } else {  /* fault: a fresh node, or the evicted LRU page's */
                st[6]++;
                key += miss << shift;
                if (size < st[8]) {
                    x = size++;
                } else {
                    x = lru;
                    lru_unlink(node, x, &mru, &lru);
                    for (j = lru_find(table, bits, node[3 * x]), k = j;;) {
                        k = (k + 1) & mask;
                        if (!table[2 * k + 1])
                            break;
                        h = LRU_HOME(table[2 * k]);  /* may k's entry fill the hole at j? */
                        if (k > j ? (h <= j || h > k) : (h <= j && h > k)) {
                            table[2 * j] = table[2 * k];
                            table[2 * j + 1] = table[2 * k + 1];
                            j = k;
                        }
                    }
                    table[2 * j + 1] = 0;
                    st[7]++;
                    j = lru_find(table, bits, page);
                }
                table[2 * j] = page;
                table[2 * j + 1] = x + 1;
                node[3 * x] = page;
            }
            node[3 * x + 1] = -1;
            node[3 * x + 2] = mru;
            if (mru >= 0) node[3 * mru + 1] = x; else lru = x;
            mru = x;
            if (!--m || key > top)
                break;
        }
        pr[0] = m;
        if (m) {
            x = key;
        } else {
            completion[i] = key >> shift;
            if (!hn)
                goto out;
            x = heap[--hn];
        }
        /* pop the top into key: the hole sinks to a leaf along the smaller
         * children (branch-free), then x rises from there */
        key = heap[0];
        for (j = 0; (k = 2 * j + 1) < hn; j = k) {
            k += (k + 1 < hn) & (heap[k + 1] < heap[k]);
            heap[j] = heap[k];
        }
        for (; j > 0 && heap[(j - 1) >> 1] > x; j = (j - 1) >> 1)
            heap[j] = heap[(j - 1) >> 1];
        heap[j] = x;
    }
out:
    st[0] = key; st[1] = hn; st[2] = size; st[3] = mru; st[4] = lru;
    return status;
}

/* The two steps DET-PAR's and RAND-PAR's loops share.  Each processor
 * has a window row in win: 4 words, its prev and reuse column addresses,
 * the global position of column row 0, and one past the last row swept.
 *
 * win_short: does processor i's window reach the last row a box of
 * `budget` from row pos can serve, min(pos + budget, n)?  Returns 0 when
 * it does, else that row (> 0), which the caller hands back to python. */
static int64_t win_short(const int64_t *win, int64_t i, int64_t pos,
                         int64_t budget, int64_t n) {
    int64_t upto = budget < n - pos ? pos + budget : n;
    return win[4 * i + 3] >= upto ? 0 : upto;
}

/* box_record: run processor i's box of height h, reserved over [start,
 * end), from row pos over its window, and write its record r: the
 * BoxRecord fields, the tag as its code.  Returns the first row not
 * served; the time it used goes to *used. */
static int64_t box_record(const int64_t *win, int64_t *r, int64_t i, int64_t pos,
                          int64_t h, int64_t start, int64_t end, int64_t s,
                          int64_t phase, int64_t tag, int64_t *used) {
    const int64_t *w = win + 4 * i;
    int64_t hits, stop;
    stop = box_walk((const int64_t *)(intptr_t)w[0], (const int64_t *)(intptr_t)w[1],
                    pos - w[2], w[3] - w[2], pos, h, end - start, s, &hits, used)
           + w[2];
    r[0] = i; r[1] = h; r[2] = start; r[3] = end; r[4] = pos; r[5] = stop;
    r[6] = hits; r[7] = stop - pos - hits; r[8] = phase; r[9] = tag;
    return stop;
}

/* DET-PAR's event loop (repro.core.det_par.DetPar) over caller-owned
 * state, resumable like repro_lru_run:
 *   st    the DP_* scalars below
 *   heap  4 per pending event: time, push number, a, b.  a >= 0 is the
 *         seg_end of processor a's segment with token b, a < 0 the slot
 *         event of strip level -1 - a in epoch b.  Events pop in (time,
 *         push number) order, EventScheduler's order.
 *   proc  DP_PROC per processor: the PR_* fields (height 0 = no segment)
 *   win   the window rows above
 *   lev   3 per strip level: height, slots, round-robin pointer
 *   rec   10 per box record: BoxRecord's fields, the tag as 0 base, 1 strip
 * It returns before it changes any state of the step it stops at, and
 * re-runs that step when called again:
 *   i >= 0  processor i's window ends before st[DP_UPTO], the end of the
 *           box it is about to run;
 *   -2      a phase ended and every segment is finalized: the caller
 *           plans the next one and sets st[DP_MODE] = DP_SETUP;
 *   -3      the record buffer is full;
 *   -1      every processor is done; -4 the queue drained first, -5 the
 *           heap is full (both bugs). */
enum { DP_T, DP_REMAINING, DP_EPOCH, DP_TOKEN, DP_SEQ, DP_HN, DP_HCAP, DP_PHASE,
       DP_PSA, DP_BASEH, DP_NLEV, DP_MODE, DP_FINJ, DP_NREC, DP_RECCAP, DP_UPTO,
       DP_P, DP_S, DP_LEN };
enum { DP_EVENTS, DP_FINAL, DP_SETUP };
enum { PR_POS, PR_N, PR_DONE, PR_H, PR_START, PR_TOKEN, PR_TAG, DP_PROC };

#define EV_BEFORE(x, y) (heap[4 * (x)] < heap[4 * (y)] || \
    (heap[4 * (x)] == heap[4 * (y)] && heap[4 * (x) + 1] < heap[4 * (y) + 1]))

static void ev_swap(int64_t *heap, int64_t x, int64_t y) {
    int64_t k, v;
    for (k = 0; k < 4; k++) {
        v = heap[4 * x + k];
        heap[4 * x + k] = heap[4 * y + k];
        heap[4 * y + k] = v;
    }
}

static void ev_push(int64_t *st, int64_t *heap, int64_t t, int64_t a, int64_t b) {
    int64_t x = st[DP_HN]++, up;
    heap[4 * x] = t;
    heap[4 * x + 1] = st[DP_SEQ]++;
    heap[4 * x + 2] = a;
    heap[4 * x + 3] = b;
    for (; x > 0 && EV_BEFORE(x, up = (x - 1) >> 1); x = up)
        ev_swap(heap, x, up);
}

static void ev_pop(int64_t *st, int64_t *heap) {
    int64_t hn = --st[DP_HN], x = 0, c;
    ev_swap(heap, 0, hn);
    while ((c = 2 * x + 1) < hn) {
        if (c + 1 < hn && EV_BEFORE(c + 1, c))
            c++;
        if (!EV_BEFORE(c, x))
            break;
        ev_swap(heap, x, c);
        x = c;
    }
}

/* Does processor i's window cover the box that finalizing its segment
 * at time t runs?  If not, st[DP_UPTO] is set to the row it must reach. */
static int dp_covered(int64_t *st, const int64_t *proc, const int64_t *win,
                      int64_t i, int64_t t) {
    const int64_t *pr = proc + DP_PROC * i;
    int64_t budget = t - pr[PR_START], upto;
    if (!pr[PR_H] || budget <= 0 || !(upto = win_short(win, i, pr[PR_POS], budget, pr[PR_N])))
        return 1;
    st[DP_UPTO] = upto;
    return 0;
}

/* finalize(i, t): run processor i's segment up to time t as one box. */
static void dp_finalize(int64_t *st, int64_t *proc, const int64_t *win,
                        int64_t *rec, int64_t *completion, int64_t i, int64_t t) {
    int64_t *pr = proc + DP_PROC * i;
    int64_t h = pr[PR_H], start = pr[PR_START], end, used;
    if (!h)
        return;
    pr[PR_H] = 0;
    if (t - start <= 0)
        return;
    end = box_record(win, rec + 10 * st[DP_NREC]++, i, pr[PR_POS], h, start, t,
                     st[DP_S], st[DP_PHASE], pr[PR_TAG], &used);
    pr[PR_POS] = end;
    if (end >= pr[PR_N] && !pr[PR_DONE]) {
        pr[PR_DONE] = 1;
        st[DP_REMAINING]--;
        completion[i] = start + used;
    }
}

static void dp_start(int64_t *st, int64_t *heap, int64_t *proc, int64_t i,
                     int64_t h, int64_t t, int64_t tag) {
    int64_t *pr = proc + DP_PROC * i;
    pr[PR_H] = h;
    pr[PR_START] = t;
    pr[PR_TOKEN] = ++st[DP_TOKEN];
    pr[PR_TAG] = tag;
    ev_push(st, heap, t + st[DP_S] * h, i, pr[PR_TOKEN]);
}

int64_t repro_detpar_run(int64_t *st, int64_t *heap, int64_t *proc,
                         const int64_t *win, int64_t *lev, int64_t *rec,
                         int64_t *completion) {
    const int64_t p = st[DP_P], s = st[DP_S];
    int64_t t, a, b, i, j, k, z, h, *pr;
    for (;;) {
        if (st[DP_NREC] == st[DP_RECCAP])
            return -3;
        if (st[DP_MODE] == DP_SETUP) {  /* base boxes, then every strip slot */
            t = st[DP_T];
            for (i = 0; i < p; i++)
                if (!proc[DP_PROC * i + PR_DONE])
                    dp_start(st, heap, proc, i, st[DP_BASEH], t, 0);
            for (j = 0; j < st[DP_NLEV]; j++) {
                lev[3 * j + 2] = 0;
                for (k = 0; k < lev[3 * j + 1]; k++)
                    ev_push(st, heap, t, -1 - j, st[DP_EPOCH]);
            }
            st[DP_MODE] = DP_EVENTS;
            continue;
        }
        if (st[DP_MODE] == DP_FINAL) {  /* finalize every running segment */
            t = st[DP_T];
            for (i = st[DP_FINJ]; i < p && !proc[DP_PROC * i + PR_H]; i++)
                ;
            st[DP_FINJ] = i;
            if (i == p)
                return -2;
            if (!dp_covered(st, proc, win, i, t))
                return i;
            dp_finalize(st, proc, win, rec, completion, i, t);
            continue;
        }
        if (!st[DP_REMAINING])
            return -1;
        if (!st[DP_HN])
            return -4;
        if (st[DP_HN] + 1 > st[DP_HCAP])
            return -5;
        t = heap[0];
        a = heap[2];
        b = heap[3];
        if (a >= 0) {  /* seg_end */
            i = a;
            pr = proc + DP_PROC * i;
            if (!pr[PR_H] || pr[PR_TOKEN] != b) {  /* stale: preempted or rebuilt */
                ev_pop(st, heap);
                continue;
            }
            if (!dp_covered(st, proc, win, i, t))
                return i;
            ev_pop(st, heap);
            dp_finalize(st, proc, win, rec, completion, i, t);
            if (!pr[PR_DONE])
                dp_start(st, heap, proc, i, st[DP_BASEH], t, 0);
        } else {  /* slot: offer a height-z box to the next active processor */
            j = -1 - a;
            if (b != st[DP_EPOCH]) {  /* stale: the phase was rebuilt */
                ev_pop(st, heap);
                continue;
            }
            z = lev[3 * j];
            for (i = lev[3 * j + 2], k = 0; k < p && proc[DP_PROC * i + PR_DONE]; k++)
                i = i + 1 == p ? 0 : i + 1;
            if (k == p) {  /* no active processor: the strip dies */
                ev_pop(st, heap);
                continue;
            }
            pr = proc + DP_PROC * i;
            h = pr[PR_H];
            if ((!h || z > h) && !dp_covered(st, proc, win, i, t))
                return i;
            ev_pop(st, heap);
            lev[3 * j + 2] = i + 1 == p ? 0 : i + 1;
            if (!h || z > h) {  /* taller than what it holds: adopt */
                dp_finalize(st, proc, win, rec, completion, i, t);
                if (!pr[PR_DONE])
                    dp_start(st, heap, proc, i, z, t, 1);
            }
            ev_push(st, heap, t + s * z, a, b);
        }
        /* phase end: half the processors active at its start are done */
        if (st[DP_REMAINING] && st[DP_REMAINING] <= st[DP_PSA] / 2) {
            st[DP_T] = t;
            st[DP_FINJ] = 0;
            st[DP_MODE] = DP_FINAL;
        }
    }
}

/* RAND-PAR's chunk schedule (repro.core.rand_par.RandPar) over
 * caller-owned state, resumable like repro_detpar_run:
 *   st    the RP_* scalars below; the caller plans each chunk (RP_A to
 *         RP_BS) and zeroes its cursor (RP_ROUND to RP_NBATCH)
 *   proc  3 per processor: position, length, done
 *   win   the window rows above
 *   act   the RP_A processors active at the chunk start, ascending
 *   rec   repro_detpar_run's records, the tag as 0 primary, 1 secondary
 * A chunk is RP_ROUNDS rounds, in each of which every processor of act
 * not yet done runs one box of height RP_HMIN, then act split in batches
 * of RP_BS, in each of which every processor not yet done runs one box
 * of height RP_J.  Every box lasts s * height.  A round advances the
 * clock even when no box ran; a batch only when one did.
 * It returns before it changes any state of the step it stops at:
 *   i >= 0  processor i's window ends before st[RP_UPTO], the end of the
 *           box it is about to run;
 *   -2      the chunk ended (again, until the caller plans the next);
 *   -3      the record buffer is full. */
enum { RP_T, RP_REMAINING, RP_PHASE, RP_NREC, RP_RECCAP, RP_UPTO, RP_S, RP_A,
       RP_HMIN, RP_ROUNDS, RP_J, RP_BS, RP_ROUND, RP_K, RP_LO, RP_RAN, RP_NPRIM,
       RP_NSEC, RP_NBATCH, RP_LEN };

int64_t repro_randpar_run(int64_t *st, int64_t *proc, const int64_t *win,
                          const int64_t *act, int64_t *rec, int64_t *completion) {
    const int64_t s = st[RP_S], a = st[RP_A], rounds = st[RP_ROUNDS], bs = st[RP_BS];
    int64_t primary, h, k, lo, i, end, used, upto, *pr;
    for (;;) {
        if (st[RP_ROUND] > rounds)
            return -2;
        primary = st[RP_ROUND] < rounds;
        h = primary ? st[RP_HMIN] : st[RP_J];
        k = st[RP_K];
        lo = st[RP_LO];
        if (k == (primary || a - lo <= bs ? a : lo + bs)) {  /* a round or batch ends */
            if (primary) {
                st[RP_T] += s * h;
                st[RP_ROUND]++;
                st[RP_K] = 0;
            } else {
                if (st[RP_RAN]) {
                    st[RP_T] += s * h;
                    st[RP_NBATCH]++;
                    st[RP_RAN] = 0;
                }
                st[RP_LO] = k;
                if (k == a)
                    st[RP_ROUND]++;
            }
            continue;
        }
        i = act[k];
        pr = proc + 3 * i;
        if (!pr[2]) {
            if (st[RP_NREC] == st[RP_RECCAP])
                return -3;
            if ((upto = win_short(win, i, pr[0], s * h, pr[1]))) {
                st[RP_UPTO] = upto;
                return i;
            }
            end = box_record(win, rec + 10 * st[RP_NREC]++, i, pr[0], h, st[RP_T],
                             st[RP_T] + s * h, s, st[RP_PHASE], !primary, &used);
            pr[0] = end;
            if (end >= pr[1]) {
                pr[2] = 1;
                st[RP_REMAINING]--;
                completion[i] = st[RP_T] + used;
            }
            st[primary ? RP_NPRIM : RP_NSEC]++;
            st[RP_RAN] = !primary;
        }
        st[RP_K] = k + 1;
    }
}

/* Belady's MIN over one column (repro.paging.belady): the faults serving
 * seq[0, n) with 1 <= cap <= n resident pages.  scratch holds n +
 * max(2^bits, n + 1 + cap) words:
 *   next   each request's next use, n = never
 *   table  page -> its latest position (-1 = empty slot), 2^bits >= 2n
 *          slots, linear probing; dead after the backward pass, its
 *          words then hold
 *   where  position -> heap index of the resident entry whose next use
 *          it is (-1 = none), n + 1 entries, and
 *   heap   a max-heap of the resident entries' next uses.
 * A request hits when the entry its page's previous occurrence left is
 * still resident; that entry's key then rises to the request's next use.
 * A fault with a full cache replaces the root, the furthest next use.
 * Next uses are distinct positions except n, and which never-again page
 * goes first does not change the count. */
int64_t repro_min_run(const int64_t *seq, int64_t n, int64_t cap, int64_t bits,
                      int64_t *scratch) {
    int64_t mask = ((int64_t)1 << bits) - 1, faults = 0, size = 0, i, j, x, c, key;
    int64_t *next = scratch, *table = scratch + n, *where = table, *heap = table + n + 1;
    for (j = 0; j <= mask; j++)
        table[j] = -1;
    for (i = n - 1; i >= 0; i--) {
        for (j = WIN_HOME(seq[i]); table[j] >= 0 && seq[table[j]] != seq[i];)
            j = (j + 1) & mask;
        next[i] = table[j] >= 0 ? table[j] : n;
        table[j] = i;
    }
    for (i = 0; i <= n; i++)
        where[i] = -1;
    for (i = 0; i < n; i++) {
        key = next[i];
        if ((x = where[i]) < 0) {
            faults++;
            if (size == cap) {  /* evict the root: key sinks from there */
                where[heap[0]] = -1;
                for (x = 0; (c = 2 * x + 1) < size; x = c) {
                    c += c + 1 < size && heap[c + 1] > heap[c];
                    if (heap[c] <= key)
                        break;
                    where[heap[x] = heap[c]] = x;
                }
                heap[x] = key;
                where[key] = x;
                continue;
            }
            x = size++;
        }
        /* a new entry at x, or entry x's key rose from i: key rises */
        for (; x > 0 && heap[(x - 1) >> 1] < key; x = (x - 1) >> 1)
            where[heap[x] = heap[(x - 1) >> 1]] = x;
        heap[x] = key;
        where[key] = x;
    }
    return faults;
}
"""


def address(arr: np.ndarray) -> int:
    """The address of a C-contiguous array's data, as an int.

    A writable, non-empty buffer is read through ``ctypes.c_char.from_buffer``,
    which costs a fifth of ``arr.ctypes.data`` and its helper object; the
    window blocks take two lookups per append.  The caller keeps ``arr``
    alive while the address is in use.
    """
    if arr.flags.writeable and arr.nbytes:
        return ctypes.addressof(ctypes.c_char.from_buffer(arr))
    return arr.ctypes.data


@dataclass(frozen=True)
class NativeOps:
    """Handle to the compiled kernel primitives.

    Every callable takes contiguous int64 numpy arrays and plain ints;
    output arrays are filled in place.
    """

    dp_solve: Callable[..., None]
    #: ``box_probe(prev_addr, reuse_addr, i, n, start, height, budget, s)``
    #: -> ``[served, hits, time_used]`` of the box from global position
    #: ``start`` over column rows ``[i, n)`` (``repro_box_run``), for call
    #: sites that probe the same columns tens of thousands of times.  The
    #: caller passes the columns' addresses and keeps the arrays alive.
    box_probe: Callable[..., List[int]]
    #: ``stream_append(addr, chunk)`` -> 0, or 1 when the window's page
    #: table must grow first: ``repro_stream_append`` over the window
    #: block at ``addr``.
    stream_append: Callable[..., int]
    #: ``sweep_columns(data, starts, rows)`` -> ``(prev, reuse)``: the
    #: reuse-distance sweep (``repro_sweep_columns``) of every column
    #: ``data[starts[c] : starts[c] + rows[c]]`` of one int64 payload,
    #: back to back in one arena.  Column ``c``'s rows start at
    #: ``rows[:c].sum()`` and equal its ``SequenceKernel``'s columns.
    #: Raises ``ValueError`` before the call when a column reaches
    #: outside ``data``.
    sweep_columns: Callable[..., tuple]
    #: ``lru_loop(shift, miss, st, heap, proc, table, node, completion)``
    #: -> ``step``: GLOBAL-LRU's event loop bound to those state arrays
    #: (layout on ``repro_lru_run``).  Each ``step()`` runs it until a
    #: processor's chunk runs out, returning that processor, or until all
    #: are done, returning -1.  ``step`` holds the arrays alive.
    lru_loop: Callable[..., Callable[[], int]]
    #: ``detpar_loop(st, heap, proc, win, lev, rec, completion)`` ->
    #: ``step``: DET-PAR's event loop bound to those state arrays (layout
    #: and return codes on ``repro_detpar_run``); ``step`` holds them alive.
    detpar_loop: Callable[..., Callable[[], int]]
    #: ``randpar_loop(st, proc, win, act, rec, completion)`` -> ``step``:
    #: RAND-PAR's chunk schedule bound to those state arrays (layout and
    #: return codes on ``repro_randpar_run``); ``step`` holds them alive.
    randpar_loop: Callable[..., Callable[[], int]]
    #: ``min_faults(seq, capacity)`` -> Belady's MIN fault count over the
    #: column ``seq`` (converted to contiguous int64) at ``capacity >= 1``
    #: (``repro_min_run``, O(n log n) time, O(n) scratch words per call).
    min_faults: Callable[..., int]


# --------------------------------------------------------------------- #
# compile-on-demand C shared library, loaded via ctypes
# --------------------------------------------------------------------- #
def _cc_build_dir() -> Path:
    override = os.environ.get(NATIVE_CACHE_ENV)
    if override:
        return Path(override)
    return Path(tempfile.gettempdir()) / f"repro-native-{os.getuid() if hasattr(os, 'getuid') else 'u'}"


def _private(path: Path, kind: Callable[[int], bool]) -> bool:
    """``path`` is a ``kind`` (``stat.S_ISDIR``/``S_ISREG``; a symlink is
    neither) owned by this user and not group- or other-writable."""
    try:
        st = os.lstat(path)
    except OSError:
        return False
    if not kind(st.st_mode):
        return False
    if not hasattr(os, "getuid"):  # no POSIX ownership to check
        return True
    return st.st_uid == os.getuid() and not st.st_mode & 0o022


def _build_and_load(build: Path, lib_path: Path) -> Optional[ctypes.CDLL]:
    """Compile into ``build`` unless ``lib_path`` exists, then load it.

    Each build compiles in its own private scratch directory and lands
    with an atomic rename, so concurrent builds never see a torn file.
    """
    if not os.path.lexists(lib_path):
        compiler = os.environ.get("CC") or "cc"
        try:
            with tempfile.TemporaryDirectory(dir=build) as scratch:
                src = Path(scratch) / "kernel.c"
                out = Path(scratch) / lib_path.name
                src.write_text(_C_SOURCE)
                cmd = [compiler, "-O2", "-shared", "-fPIC", "-o", str(out), str(src)]
                proc = subprocess.run(cmd, capture_output=True, timeout=120, check=False)
                if proc.returncode != 0:
                    return None
                os.chmod(out, 0o700)
                os.replace(out, lib_path)
        except (OSError, subprocess.SubprocessError):
            return None
    try:
        return ctypes.CDLL(str(lib_path))
    except OSError:
        return None


def _compile_cc() -> Optional[ctypes.CDLL]:
    """Compile (once, content-addressed) and load the C translation unit."""
    digest = hashlib.sha256(_C_SOURCE.encode()).hexdigest()[:16]
    suffix = ".so" if sys.platform != "win32" else ".dll"
    build = _cc_build_dir()
    lib_path = build / f"repro_kernel_{digest}{suffix}"
    try:
        build.mkdir(mode=0o700, parents=True, exist_ok=True)
    except OSError:
        pass
    if _private(build, stat.S_ISDIR) and (
        not os.path.lexists(lib_path) or _private(lib_path, stat.S_ISREG)
    ):
        return _build_and_load(build, lib_path)
    warnings.warn(
        f"native kernel cache {build} is missing or not private to this user; "
        "building the kernel in a fresh temporary directory instead",
        RuntimeWarning,
        stacklevel=2,
    )
    try:
        fresh = Path(tempfile.mkdtemp(prefix="repro-native-"))
    except OSError:
        return None
    try:
        # a loaded library stays mapped after its file is removed
        return _build_and_load(fresh, fresh / lib_path.name)
    finally:
        shutil.rmtree(fresh, ignore_errors=True)


def _cc_ops() -> Optional[NativeOps]:
    lib = _compile_cc()
    if lib is None:
        return None
    c_i64 = ctypes.c_int64
    p_i64 = ctypes.c_void_p  # raw addresses: ndarray.ctypes.data ints pass
    # straight through, skipping data_as()'s cast machinery per call
    for name, argtypes in (
        ("repro_box_run", [p_i64, p_i64] + [c_i64] * 6 + [p_i64]),
        ("repro_dp_solve", [p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64, c_i64, c_i64, p_i64, p_i64, p_i64]),
        ("repro_stream_append", [p_i64, p_i64, c_i64, c_i64]),
        ("repro_sweep_columns", [p_i64] * 3 + [c_i64] + [p_i64] * 3 + [c_i64]),
        ("repro_lru_run", [c_i64, c_i64] + [p_i64] * 6),
        ("repro_detpar_run", [p_i64] * 7),
        ("repro_randpar_run", [p_i64] * 6),
        ("repro_min_run", [p_i64, c_i64, c_i64, c_i64, p_i64]),
    ):
        fn = getattr(lib, name)
        fn.argtypes = argtypes
        fn.restype = None
    for name in ("repro_stream_append", "repro_lru_run", "repro_detpar_run", "repro_randpar_run", "repro_min_run"):
        getattr(lib, name).restype = c_i64

    ptr = address

    # per-thread (out array, out pointer) scratch for box probes: the C
    # call releases the GIL, so a shared buffer could race across threads
    tls = threading.local()
    box_fn = lib.repro_box_run
    append_fn = lib.repro_stream_append
    cold = np.iinfo(np.int64).max

    def box_probe(prev_addr, reuse_addr, i, n, start, height, budget, s):
        # the scratch is fetched inline: this runs once per event-driven
        # box, where a spare function frame is measurable
        try:
            out, optr = tls.pair
        except AttributeError:
            arr = np.empty(3, dtype=np.int64)
            out, optr = tls.pair = (arr, ptr(arr))
        box_fn(prev_addr, reuse_addr, i, n, start, height, budget, s, optr)
        return out.tolist()

    def stream_append(addr, chunk):
        return append_fn(addr, ptr(chunk), len(chunk), cold)

    def sweep_columns(data, starts, rows):
        data = np.ascontiguousarray(data, dtype=np.int64)
        starts = np.ascontiguousarray(starts, dtype=np.int64)
        rows = np.ascontiguousarray(rows, dtype=np.int64)
        if data.ndim != 1 or starts.ndim != 1 or starts.shape != rows.shape:
            raise ValueError("sweep_columns takes a 1-D payload and one start and row count per column")
        if ((starts < 0) | (rows < 0)).any() or (rows > len(data) - starts).any():
            raise ValueError("a column reaches outside the payload")
        total = int(rows.sum())
        arena = np.empty(2 * total, dtype=np.int64)
        n = int(rows.max()) if len(rows) else 0
        scratch = np.empty(n + 1 + (1 << max(1, (2 * n - 1).bit_length())), dtype=np.int64)
        lib.repro_sweep_columns(
            ptr(data), ptr(starts), ptr(rows), len(rows), ptr(arena), ptr(arena) + 8 * total,
            ptr(scratch), cold,
        )
        return arena[:total], arena[total:]

    def dp_solve(prev, lev, budgets, costs, heights, s, inf, dist, parent_pos, parent_h):
        lib.repro_dp_solve(
            ptr(prev), ptr(lev), len(prev), len(budgets), ptr(budgets), ptr(costs),
            ptr(heights), s, inf, ptr(dist), ptr(parent_pos), ptr(parent_h),
        )

    def bind(fn, *args, state):
        step = functools.partial(fn, *args, *map(ptr, state))
        step.state = state  # the pointers above stay valid while step lives
        return step

    def lru_loop(shift, miss, *state):
        return bind(lib.repro_lru_run, shift, miss, state=state)

    def detpar_loop(*state):
        return bind(lib.repro_detpar_run, state=state)

    def randpar_loop(*state):
        return bind(lib.repro_randpar_run, state=state)

    def min_faults(seq, capacity):
        if capacity < 1:
            raise ValueError(f"Belady capacity must be >= 1, got {capacity}")
        col = np.ascontiguousarray(seq, dtype=np.int64)
        n = col.size
        cap = min(int(capacity), n)
        bits = max(1, (2 * n - 1).bit_length())
        scratch = np.empty(n + max(1 << bits, n + 1 + cap), dtype=np.int64)
        return lib.repro_min_run(ptr(col), n, cap, bits, ptr(scratch))

    return NativeOps(
        dp_solve=dp_solve,
        box_probe=box_probe,
        stream_append=stream_append,
        sweep_columns=sweep_columns,
        lru_loop=lru_loop,
        detpar_loop=detpar_loop,
        randpar_loop=randpar_loop,
        min_faults=min_faults,
    )


#: The probed build result, ``_UNPROBED`` until the first call.
_UNPROBED = object()
_ops: object = _UNPROBED


def native_ops() -> Optional[NativeOps]:
    """The compiled primitives, or ``None`` when they cannot be built.

    The build is attempted once per process and its result cached, so
    hot paths pay one global lookup.
    """
    global _ops
    if _ops is _UNPROBED:
        _ops = _cc_ops()
    return _ops


def native_flavor() -> Optional[str]:
    """``"cc"`` when the compiled tier is usable, else ``None``."""
    return "cc" if native_ops() is not None else None


def clear_native_cache() -> None:
    """Forget the cached build result, so the next call probes again.

    For tests that change ``$CC`` or ``$REPRO_NATIVE_CACHE`` mid-process.
    """
    global _ops
    _ops = _UNPROBED
