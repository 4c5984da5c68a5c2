/* A SIGPROF sampling profiler in one LD_PRELOAD object.
 *
 *   gcc -O2 -shared -fPIC -o sampler.so sampler.c
 *   SIGPROF_OUT=/tmp/prof LD_PRELOAD=./sampler.so <command…>
 *
 * Every process of the command samples itself at 500 Hz of CPU time
 * (`setitimer(ITIMER_PROF)`; the handler stores `backtrace()` frames
 * into a static array — no allocation, no I/O in the handler) and at
 * exit writes `$SIGPROF_OUT.<pid>`:
 *
 *   line 1      <samples taken> <samples dropped> <path of the executable>
 *   line 2 …    one sample per line, innermost frame first, as hex
 *               offsets into the executable (its PIE load base, read
 *               from /proc/self/maps, subtracted), `0` for a frame in
 *               another object
 *
 * Frames 0 and 1 of `backtrace()` are the handler and the kernel's
 * signal trampoline; frame 2 is the interrupted PC. Every frame above
 * it is a return address, written minus one so that it symbolises to
 * the call and not to whatever follows it. `profile.sh` does the rest.
 */
#define _GNU_SOURCE
#include <execinfo.h>
#include <limits.h>
#include <signal.h>
#include <stdint.h>
#include <stdio.h>
#include <stdlib.h>
#include <string.h>
#include <sys/time.h>
#include <unistd.h>

#define HZ 500
#define MAX_SAMPLES (1 << 16) /* 131 s of one busy thread */
#define MAX_DEPTH 64
#define SKIP 2

static void *frames[MAX_SAMPLES][MAX_DEPTH];
static int depth[MAX_SAMPLES];
static int taken, dropped;

static void on_sigprof(int sig) {
    (void)sig;
    int slot = __atomic_fetch_add(&taken, 1, __ATOMIC_RELAXED);
    if (slot >= MAX_SAMPLES) {
        __atomic_fetch_add(&dropped, 1, __ATOMIC_RELAXED);
        return;
    }
    depth[slot] = backtrace(frames[slot], MAX_DEPTH);
}

static void stop_timer(void) {
    struct itimerval off = {{0, 0}, {0, 0}};
    setitimer(ITIMER_PROF, &off, NULL);
}

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

static void write_samples(void) {
    stop_timer();
    const char *out = getenv("SIGPROF_OUT");
    char exe[PATH_MAX], path[PATH_MAX + 16];
    ssize_t len = readlink("/proc/self/exe", exe, sizeof exe - 1);
    if (!out || len < 0)
        return;
    exe[len] = 0;
    uintptr_t lo, hi;
    executable_range(exe, &lo, &hi);
    snprintf(path, sizeof path, "%s.%d", out, (int)getpid());
    FILE *f = fopen(path, "w");
    if (!f)
        return;
    int n = taken < MAX_SAMPLES ? taken : MAX_SAMPLES;
    fprintf(f, "%d %d %s\n", n, dropped, exe);
    for (int s = 0; s < n; s++) {
        for (int d = SKIP; d < depth[s]; d++) {
            uintptr_t pc = (uintptr_t)frames[s][d] - (d > SKIP);
            fprintf(f, d > SKIP ? " %lx" : "%lx",
                    (unsigned long)(pc >= lo && pc < hi ? pc - lo : 0));
        }
        fputc('\n', f);
    }
    fclose(f);
}

__attribute__((constructor)) static void start(void) {
    /* The first call loads the unwinder (libgcc_s) and allocates;
     * make it here, not inside a signal handler. */
    void *warm[4];
    backtrace(warm, 4);

    struct sigaction sa;
    memset(&sa, 0, sizeof sa);
    sa.sa_handler = on_sigprof;
    sa.sa_flags = SA_RESTART;
    sigemptyset(&sa.sa_mask);
    sigaction(SIGPROF, &sa, NULL);

    struct itimerval every = {{0, 1000000 / HZ}, {0, 1000000 / HZ}};
    setitimer(ITIMER_PROF, &every, NULL);
    atexit(write_samples);
}
