/* A live-heap census by allocation size in one LD_PRELOAD object.
 *
 *   gcc -O2 -shared -fPIC -o census.so census.c
 *   HEAPCENSUS_OUT=/tmp/census LD_PRELOAD=./census.so <command…>
 *
 * Every process of the command counts, per requested allocation size,
 * how many blocks of that size are live and how many bytes they hold.
 * Whenever the live total passes the last snapshot by `STEP` bytes,
 * the table is copied; so the snapshot at exit was taken within
 * `STEP` of the run's high-water mark.
 *
 * Where the blocks come from: about one allocation in `SAMPLE_ONE_IN`
 * of every size (a per-thread random draw, so sites that alternate
 * cannot hide behind a stride), and every one of `SAMPLE_ALL_FROM`
 * (4 KiB) or more, records its `backtrace()`: blocks that large are
 * few, often only a few dozen live of a size, which a one-in-64 draw
 * can miss altogether. Equal
 * stacks of one size share a *site*, which counts its sampled blocks
 * that are live, and the snapshot copies those counts too. At exit
 * the process writes `$HEAPCENSUS_OUT.<pid>`:
 *
 *   line 1      <peak live bytes> <live bytes at the snapshot>
 *               <peak resident kB> <path of the executable>
 *   then        <size> <live blocks> at the snapshot, one size a line
 *   then        @ <size> <live sampled blocks> <frame> <frame> … at the
 *               snapshot, one site a line, innermost frame first, each
 *               a return address minus one as a hex offset into the
 *               executable (its PIE load base subtracted), `0` for a
 *               frame in another object (this shim, libc)
 *
 * `census.sh` sorts, symbolises and prints it. The shim wraps glibc's
 * `__libc_malloc` family: every block carries a 16-byte header (its
 * requested size; its offset from the block glibc returned, and its
 * site, if sampled), so the process's own resident size under the
 * census is not the one it has without it. The peak resident size is
 * the kernel's (`VmHWM` of `/proc/self/status`, 0 where it cannot be
 * read): beside the peak live heap it shows what the allocator keeps
 * after the program has freed it.
 */
#define _GNU_SOURCE
#include <errno.h>
#include <execinfo.h>
#include <limits.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <unistd.h>

extern void *__libc_malloc(size_t);
extern void *__libc_calloc(size_t, size_t);
extern void *__libc_realloc(void *, size_t);
extern void *__libc_memalign(size_t, size_t);
extern void __libc_free(void *);

#define HEADER 16
#define SLOTS (1 << 16) /* distinct sizes */
#define STEP (256 << 10)
#define SAMPLE_ONE_IN 64
#define SAMPLE_ALL_FROM (4 << 10)
#define SITES (1 << 14) /* distinct (size, stack) pairs */
#define DEPTH 32
#define OFFSET_MASK 0xffffffffull /* header[1]: offset low, site + 1 high */

struct slot {
    size_t size;
    long live;
    char taken;
};

struct site {
    size_t size;
    uint64_t hash;
    long live, snapshot_live;
    int depth;
    void *frames[DEPTH];
};

static struct slot table[SLOTS], snapshot[SLOTS];
static int used[SLOTS], nused;
static struct site sites[SITES];
static int site_at[SITES], nsites; /* hash index: site + 1, 0 empty */
static size_t live_bytes, peak_bytes, snapshot_bytes;
static char lock, reporting;

/* Per thread: inside `backtrace()` (which may allocate), and the
 * sampling draw's state. */
static __thread __attribute__((tls_model("initial-exec"))) char tracing;
static __thread __attribute__((tls_model("initial-exec"))) uint64_t draw;

static void acquire(void) {
    while (__atomic_test_and_set(&lock, __ATOMIC_ACQUIRE)) {
    }
}

static void release(void) { __atomic_clear(&lock, __ATOMIC_RELEASE); }

/* The slot of `size` (open addressing on a multiplicative hash), or
 * NULL once every slot is taken: such a size counts in the totals
 * only. */
static struct slot *slot_of(size_t size) {
    size_t at = (size * 0x9E3779B97F4A7C15ull) >> 48;
    for (int probe = 0; probe < SLOTS; probe++, at = (at + 1) & (SLOTS - 1)) {
        if (!table[at].taken) {
            table[at].size = size;
            table[at].taken = 1;
            used[nused++] = (int)at;
            return &table[at];
        }
        if (table[at].size == size)
            return &table[at];
    }
    return NULL;
}

/* Does an allocation of `size` record its stack? One in
 * `SAMPLE_ONE_IN`, by a per-thread xorshift draw, or every one from
 * `SAMPLE_ALL_FROM`; never from inside `backtrace()`. */
static int sampled(size_t size) {
    if (tracing)
        return 0;
    if (size >= SAMPLE_ALL_FROM)
        return 1;
    if (!draw)
        draw = (uintptr_t)&draw | 1;
    draw ^= draw << 13;
    draw ^= draw >> 7;
    draw ^= draw << 17;
    return draw % SAMPLE_ONE_IN == 0;
}

/* The site of `size` allocated from `frames` (lock held), or -1 once
 * every site is taken. */
static int site_of(size_t size, void **frames, int depth) {
    uint64_t h = 0xcbf29ce484222325ull ^ size;
    for (int i = 0; i < depth; i++)
        h = (h ^ (uintptr_t)frames[i]) * 0x100000001b3ull;
    for (size_t probe = 0, at = h & (SITES - 1); probe < SITES; probe++, at = (at + 1) & (SITES - 1)) {
        int s = site_at[at] - 1;
        if (s < 0) {
            if (nsites == SITES)
                return -1;
            s = nsites++;
            sites[s].size = size;
            sites[s].hash = h;
            sites[s].depth = depth;
            memcpy(sites[s].frames, frames, depth * sizeof *frames);
            site_at[at] = s + 1;
            return s;
        }
        if (sites[s].hash == h && sites[s].size == size && sites[s].depth == depth &&
            !memcmp(sites[s].frames, frames, depth * sizeof *frames))
            return s;
    }
    return -1;
}

/* Count `blocks` (±1) of `size` against the totals and against `site`
 * (-1: none), and snapshot the tables if the live total rose `STEP`
 * past the last snapshot. `frames` (`depth` > 0) names a new block's
 * site instead; the site is returned. */
static int count(size_t size, long blocks, int site, void **frames, int depth) {
    if (__atomic_load_n(&reporting, __ATOMIC_RELAXED))
        return -1;
    acquire();
    struct slot *slot = slot_of(size);
    if (slot)
        slot->live += blocks;
    if (depth > 0)
        site = site_of(size, frames, depth);
    if (site >= 0)
        sites[site].live += blocks;
    live_bytes += blocks * size;
    if (live_bytes > peak_bytes)
        peak_bytes = live_bytes;
    if (live_bytes >= snapshot_bytes + STEP) {
        for (int i = 0; i < nused; i++)
            snapshot[used[i]] = table[used[i]];
        for (int i = 0; i < nsites; i++)
            sites[i].snapshot_live = sites[i].live;
        snapshot_bytes = live_bytes;
    }
    release();
    return site;
}

/* Write the header in front of the user block and count it, with its
 * stack if it is sampled. */
static void *stamp(char *block, size_t offset, size_t size) {
    if (!block)
        return NULL;
    void *frames[DEPTH];
    int depth = 0;
    if (sampled(size)) {
        tracing = 1;
        depth = backtrace(frames, DEPTH);
        tracing = 0;
    }
    int site = count(size, 1, -1, frames, depth);
    size_t *header = (size_t *)(block + offset - HEADER);
    header[0] = size;
    header[1] = offset | (size_t)(site + 1) << 32;
    return block + offset;
}

static size_t *header_of(void *p) { return (size_t *)((char *)p - HEADER); }

static size_t offset_of(size_t *header) { return header[1] & OFFSET_MASK; }

/* Uncount a block about to be freed or moved. */
static void uncount(size_t *header) { count(header[0], -1, (int)(header[1] >> 32) - 1, NULL, 0); }

void *malloc(size_t size) {
    if (size > SIZE_MAX - HEADER)
        return NULL;
    return stamp(__libc_malloc(size + HEADER), HEADER, size);
}

void *calloc(size_t n, size_t size) {
    if (size && n > (SIZE_MAX - HEADER) / size)
        return NULL;
    return stamp(__libc_calloc(1, n * size + HEADER), HEADER, n * size);
}

void free(void *p) {
    if (!p)
        return;
    size_t *header = header_of(p);
    uncount(header);
    __libc_free((char *)p - offset_of(header));
}

void *memalign(size_t align, size_t size) {
    if (align <= HEADER)
        return malloc(size);
    if (size > SIZE_MAX - align)
        return NULL;
    return stamp(__libc_memalign(align, size + align), align, size);
}

void *realloc(void *p, size_t size) {
    if (!p)
        return malloc(size);
    if (size == 0) {
        free(p);
        return NULL;
    }
    size_t *header = header_of(p);
    size_t old = header[0];
    if (offset_of(header) != HEADER) {
        /* An over-aligned block: move it by hand, keeping the alignment
         * its offset records. */
        void *q = memalign(offset_of(header), size);
        if (q) {
            memcpy(q, p, old < size ? old : size);
            free(p);
        }
        return q;
    }
    if (size > SIZE_MAX - HEADER)
        return NULL;
    size_t was = header[1];
    char *block = __libc_realloc((char *)p - HEADER, size + HEADER);
    if (!block)
        return NULL;
    count(old, -1, (int)(was >> 32) - 1, NULL, 0);
    return stamp(block, HEADER, size);
}

int posix_memalign(void **out, size_t align, size_t size) {
    void *p = memalign(align, size);
    if (!p)
        return ENOMEM;
    *out = p;
    return 0;
}

void *aligned_alloc(size_t align, size_t size) { return memalign(align, size); }

void *valloc(size_t size) { return memalign((size_t)sysconf(_SC_PAGESIZE), size); }

size_t malloc_usable_size(void *p) { return p ? header_of(p)[0] : 0; }

/* The executable's mappings: [lo, hi), lo being the PIE load base. */
static void executable_range(const char *exe, uintptr_t *lo, uintptr_t *hi) {
    *lo = *hi = 0;
    FILE *maps = fopen("/proc/self/maps", "r");
    if (!maps)
        return;
    char line[PATH_MAX + 128];
    while (fgets(line, sizeof line, maps)) {
        unsigned long start, end;
        char *path = strchr(line, '/');
        if (!path || sscanf(line, "%lx-%lx", &start, &end) != 2)
            continue;
        path[strcspn(path, "\n")] = 0;
        if (strcmp(path, exe) != 0)
            continue;
        if (!*lo)
            *lo = start;
        *hi = end;
    }
    fclose(maps);
}

/* The process's peak resident set in kB, from `/proc/self/status`;
 * 0 if it cannot be read. */
static unsigned long peak_resident_kb(void) {
    FILE *status = fopen("/proc/self/status", "r");
    if (!status)
        return 0;
    char line[256];
    unsigned long kb = 0;
    while (fgets(line, sizeof line, status))
        if (sscanf(line, "VmHWM: %lu kB", &kb) == 1)
            break;
    fclose(status);
    return kb;
}

/* At exit: stop counting (other threads may still allocate, and the
 * report's own stdio allocates), then write the snapshot. */
__attribute__((destructor)) static void report(void) {
    const char *base = getenv("HEAPCENSUS_OUT");
    if (!base)
        return;
    acquire();
    __atomic_store_n(&reporting, 1, __ATOMIC_RELAXED);
    release();
    char path[PATH_MAX], exe[PATH_MAX];
    snprintf(path, sizeof path, "%s.%d", base, (int)getpid());
    ssize_t n = readlink("/proc/self/exe", exe, sizeof exe - 1);
    exe[n > 0 ? n : 0] = '\0';
    uintptr_t lo, hi;
    executable_range(exe, &lo, &hi);
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "%zu %zu %lu %s\n", peak_bytes, snapshot_bytes, peak_resident_kb(), exe);
    for (int i = 0; i < nused; i++)
        if (snapshot[used[i]].live > 0)
            fprintf(out, "%zu %ld\n", snapshot[used[i]].size, snapshot[used[i]].live);
    for (int i = 0; i < nsites; i++) {
        if (sites[i].snapshot_live <= 0)
            continue;
        fprintf(out, "@ %zu %ld", sites[i].size, sites[i].snapshot_live);
        for (int d = 0; d < sites[i].depth; d++) {
            uintptr_t pc = (uintptr_t)sites[i].frames[d] - 1;
            fprintf(out, " %lx", (unsigned long)(pc >= lo && pc < hi ? pc - lo : 0));
        }
        fputc('\n', out);
    }
    fclose(out);
}

/* The first `backtrace()` loads the unwinder (libgcc_s) and
 * allocates: make it here, before the command runs. */
__attribute__((constructor)) static void warm(void) {
    void *frames[4];
    tracing = 1;
    backtrace(frames, 4);
    tracing = 0;
}
