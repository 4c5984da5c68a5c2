/* A live-heap census by allocation size in one LD_PRELOAD object.
 *
 *   gcc -O2 -shared -fPIC -o census.so census.c
 *   HEAPCENSUS_OUT=/tmp/census LD_PRELOAD=./census.so <command…>
 *
 * Every process of the command counts, per requested allocation size,
 * how many blocks of that size are live and how many bytes they hold.
 * Whenever the live total passes the last snapshot by `STEP` bytes,
 * the table is copied; so the snapshot at exit was taken within
 * `STEP` of the run's high-water mark. At exit the process writes
 * `$HEAPCENSUS_OUT.<pid>`:
 *
 *   line 1      <peak live bytes> <live bytes at the snapshot> <path of the executable>
 *   line 2 …    <size> <live blocks> at the snapshot, one size a line
 *
 * `census.sh` sorts and prints it. The shim wraps glibc's
 * `__libc_malloc` family: every block carries a 16-byte header (its
 * requested size, and its offset from the block glibc returned), so
 * the process's own resident size under the census is not the one it
 * has without it.
 */
#define _GNU_SOURCE
#include <errno.h>
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

struct slot {
    size_t size;
    long live;
    char taken;
};

static struct slot table[SLOTS], snapshot[SLOTS];
static int used[SLOTS], nused;
static size_t live_bytes, peak_bytes, snapshot_bytes;
static char lock, reporting;

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

static void count(size_t size, long blocks) {
    if (__atomic_load_n(&reporting, __ATOMIC_RELAXED))
        return;
    acquire();
    struct slot *slot = slot_of(size);
    if (slot)
        slot->live += blocks;
    live_bytes += blocks * size;
    if (live_bytes > peak_bytes)
        peak_bytes = live_bytes;
    if (live_bytes >= snapshot_bytes + STEP) {
        for (int i = 0; i < nused; i++)
            snapshot[used[i]] = table[used[i]];
        snapshot_bytes = live_bytes;
    }
    release();
}

/* Write the header in front of the user block and count it. */
static void *stamp(char *block, size_t offset, size_t size) {
    if (!block)
        return NULL;
    size_t *header = (size_t *)(block + offset - HEADER);
    header[0] = size;
    header[1] = offset;
    count(size, 1);
    return block + offset;
}

static size_t *header_of(void *p) { return (size_t *)((char *)p - HEADER); }

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
    count(header[0], -1);
    __libc_free((char *)p - header[1]);
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
    if (header[1] != HEADER) {
        /* An over-aligned block: move it by hand, keeping the alignment
         * its offset records. */
        void *q = memalign(header[1], size);
        if (q) {
            memcpy(q, p, old < size ? old : size);
            free(p);
        }
        return q;
    }
    if (size > SIZE_MAX - HEADER)
        return NULL;
    char *block = __libc_realloc((char *)p - HEADER, size + HEADER);
    if (!block)
        return NULL;
    count(old, -1);
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
    FILE *out = fopen(path, "w");
    if (!out)
        return;
    fprintf(out, "%zu %zu %s\n", peak_bytes, snapshot_bytes, exe);
    for (int i = 0; i < nused; i++)
        if (snapshot[used[i]].live > 0)
            fprintf(out, "%zu %ld\n", snapshot[used[i]].size, snapshot[used[i]].live);
    fclose(out);
}
