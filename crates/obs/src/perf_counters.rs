//! Hardware performance counters via raw `perf_event_open(2)` — no crates.
//!
//! The Hogwild scaling question is a memory-system question ("are the
//! shared `syn0`/`syn1` rows bouncing between cores?"), and wall-clock
//! telemetry cannot answer it. This module opens per-thread hardware
//! counters — cycles, retired instructions, cache misses, LLC load
//! misses — so the trainer can report `cache_miss_per_pair` and
//! instructions-per-cycle per worker.
//!
//! `perf_event_open` has no libc wrapper, so on Linux/x86-64 we issue the
//! raw syscall (`SYS_perf_event_open` = 298) against a hand-laid-out
//! `perf_event_attr` (the 64-byte `PERF_ATTR_SIZE_VER0` prefix, which
//! every kernel since 2.6.32 accepts). Everywhere else — and whenever the
//! kernel says no (`perf_event_paranoid`, seccomp, missing PMU in
//! containers/VMs) — [`ThreadCounters::open`] degrades to a disabled stub
//! that reads as "unavailable" with a human-readable reason, and the rest
//! of the pipeline carries `null` + reason instead of numbers. Nothing
//! panics and nothing is `unsafe` for callers.
//!
//! Fault point: `obs.perf_open` (armed via `v2v-fault`) forces the denial
//! path so tests can prove the graceful degradation without needing a
//! locked-down kernel.

/// One reading of the four counters this module tracks.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CounterReading {
    pub cycles: u64,
    pub instructions: u64,
    pub cache_misses: u64,
    pub llc_load_misses: u64,
}

/// Per-thread hardware counter group. Open on the thread you want to
/// measure (the counters follow the calling thread, all CPUs); call
/// [`read`](ThreadCounters::read) after the measured region. Dropping
/// closes the file descriptors.
pub struct ThreadCounters {
    inner: imp::Inner,
    /// Why the counters are unavailable (`None` = they work).
    unavailable: Option<String>,
}

impl ThreadCounters {
    /// Opens counters for the current thread. Never fails: when the
    /// syscall is denied or unsupported the result is a stub whose
    /// [`available`](ThreadCounters::available) is `false` and whose
    /// [`why_unavailable`](ThreadCounters::why_unavailable) explains.
    pub fn open() -> ThreadCounters {
        if let Err(e) = v2v_fault::inject::apply("obs.perf_open") {
            return ThreadCounters {
                inner: imp::Inner::default(),
                unavailable: Some(e.to_string()),
            };
        }
        match imp::open() {
            Ok(inner) => ThreadCounters { inner, unavailable: None },
            Err(reason) => {
                ThreadCounters { inner: imp::Inner::default(), unavailable: Some(reason) }
            }
        }
    }

    /// Whether hardware readings will be real.
    pub fn available(&self) -> bool {
        self.unavailable.is_none()
    }

    /// Human-readable reason the counters are disabled, if they are.
    pub fn why_unavailable(&self) -> Option<&str> {
        self.unavailable.as_deref()
    }

    /// Resets all four counters to zero and starts (or restarts) counting.
    pub fn start(&self) {
        imp::start(&self.inner);
    }

    /// Stops counting and returns the accumulated values since
    /// [`start`](ThreadCounters::start); `None` on a stub (or if a read
    /// fails mid-flight, e.g. the fd was revoked).
    pub fn stop(&self) -> Option<CounterReading> {
        if self.unavailable.is_some() {
            return None;
        }
        imp::stop(&self.inner)
    }
}

/// One process-wide probe of counter availability, for banner messages
/// ("perf counters: unavailable (…)") without opening per-thread groups.
/// Returns `Ok(())` or the reason string.
pub fn probe() -> Result<(), String> {
    let c = ThreadCounters::open();
    match c.why_unavailable() {
        None => Ok(()),
        Some(reason) => Err(reason.to_string()),
    }
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod imp {
    use super::CounterReading;

    // perf_event_attr, PERF_ATTR_SIZE_VER0 layout (linux/perf_event.h).
    // Later kernels accept the 64-byte prefix and zero-fill the rest.
    #[repr(C)]
    struct PerfEventAttr {
        type_: u32,
        size: u32,
        config: u64,
        sample_period: u64,
        sample_type: u64,
        read_format: u64,
        flags: u64,
        wakeup_events: u32,
        bp_type: u32,
        bp_addr: u64,
    }

    const ATTR_SIZE_VER0: u32 = 64;
    const _ATTR_LAYOUT: () = assert!(std::mem::size_of::<PerfEventAttr>() == 64);

    const SYS_PERF_EVENT_OPEN: i64 = 298; // x86-64

    const PERF_TYPE_HARDWARE: u32 = 0;
    const PERF_TYPE_HW_CACHE: u32 = 3;
    const PERF_COUNT_HW_CPU_CYCLES: u64 = 0;
    const PERF_COUNT_HW_INSTRUCTIONS: u64 = 1;
    const PERF_COUNT_HW_CACHE_MISSES: u64 = 3;
    // (PERF_COUNT_HW_CACHE_LL = 0x2) | (OP_READ = 0x0 << 8) | (RESULT_MISS = 0x1 << 16)
    const LLC_LOAD_MISSES: u64 = 0x2 | (0x1 << 16);

    // attr.flags bits: disabled (start stopped), exclude_kernel,
    // exclude_hv — count only this program's user-space work.
    const FLAG_DISABLED: u64 = 1 << 0;
    const FLAG_EXCLUDE_KERNEL: u64 = 1 << 5;
    const FLAG_EXCLUDE_HV: u64 = 1 << 6;

    const PERF_EVENT_IOC_ENABLE: u64 = 0x2400;
    const PERF_EVENT_IOC_DISABLE: u64 = 0x2401;
    const PERF_EVENT_IOC_RESET: u64 = 0x2403;

    extern "C" {
        fn syscall(num: i64, ...) -> i64;
        fn ioctl(fd: i32, request: u64, ...) -> i32;
        fn read(fd: i32, buf: *mut u8, count: usize) -> isize;
        fn close(fd: i32) -> i32;
        fn __errno_location() -> *mut i32;
    }

    fn errno() -> i32 {
        unsafe { *__errno_location() }
    }

    /// Four independent fds, one per event, each following the calling
    /// thread on any CPU. Independent (not a group) on purpose: on PMUs
    /// with few programmable counters a 4-event group can fail to
    /// schedule at all, while independent events just multiplex.
    pub struct Inner {
        fds: [i32; 4],
    }

    impl Default for Inner {
        fn default() -> Inner {
            Inner { fds: [-1; 4] }
        }
    }

    impl Drop for Inner {
        fn drop(&mut self) {
            for &fd in &self.fds {
                if fd >= 0 {
                    unsafe { close(fd) };
                }
            }
        }
    }

    fn open_event(type_: u32, config: u64) -> Result<i32, i32> {
        let attr = PerfEventAttr {
            type_,
            size: ATTR_SIZE_VER0,
            config,
            sample_period: 0,
            sample_type: 0,
            read_format: 0,
            flags: FLAG_DISABLED | FLAG_EXCLUDE_KERNEL | FLAG_EXCLUDE_HV,
            wakeup_events: 0,
            bp_type: 0,
            bp_addr: 0,
        };
        // pid=0, cpu=-1: this thread, any CPU. group_fd=-1, flags=0.
        let fd = unsafe {
            syscall(SYS_PERF_EVENT_OPEN, &attr as *const PerfEventAttr, 0i32, -1i32, -1i32, 0u64)
        };
        if fd < 0 {
            Err(errno())
        } else {
            Ok(fd as i32)
        }
    }

    pub fn open() -> Result<Inner, String> {
        const EACCES: i32 = 13;
        const EPERM: i32 = 1;
        const ENOSYS: i32 = 38;
        const ENOENT: i32 = 2;
        let events = [
            (PERF_TYPE_HARDWARE, PERF_COUNT_HW_CPU_CYCLES),
            (PERF_TYPE_HARDWARE, PERF_COUNT_HW_INSTRUCTIONS),
            (PERF_TYPE_HARDWARE, PERF_COUNT_HW_CACHE_MISSES),
            (PERF_TYPE_HW_CACHE, LLC_LOAD_MISSES),
        ];
        let mut inner = Inner::default();
        for (i, &(type_, config)) in events.iter().enumerate() {
            match open_event(type_, config) {
                Ok(fd) => inner.fds[i] = fd,
                // Partial availability counts as unavailable: a report
                // mixing real cycles with zero cache misses would lie.
                Err(e) => {
                    let why = match e {
                        EACCES | EPERM => {
                            "perf_event_open denied (kernel.perf_event_paranoid or seccomp)"
                        }
                        ENOSYS => "perf_event_open not implemented by this kernel",
                        ENOENT => "hardware event not supported by this PMU",
                        _ => "perf_event_open failed",
                    };
                    return Err(format!("{why} [event {i}, errno {e}]"));
                }
            }
        }
        Ok(inner)
    }

    pub fn start(inner: &Inner) {
        for &fd in &inner.fds {
            if fd >= 0 {
                unsafe {
                    ioctl(fd, PERF_EVENT_IOC_RESET, 0);
                    ioctl(fd, PERF_EVENT_IOC_ENABLE, 0);
                }
            }
        }
    }

    fn read_counter(fd: i32) -> Option<u64> {
        let mut value = 0u64;
        let n = unsafe { read(fd, &mut value as *mut u64 as *mut u8, 8) };
        (n == 8).then_some(value)
    }

    pub fn stop(inner: &Inner) -> Option<CounterReading> {
        for &fd in &inner.fds {
            if fd >= 0 {
                unsafe { ioctl(fd, PERF_EVENT_IOC_DISABLE, 0) };
            }
        }
        Some(CounterReading {
            cycles: read_counter(inner.fds[0])?,
            instructions: read_counter(inner.fds[1])?,
            cache_misses: read_counter(inner.fds[2])?,
            llc_load_misses: read_counter(inner.fds[3])?,
        })
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
mod imp {
    use super::CounterReading;

    /// Stub: this platform has no `perf_event_open` (or we have no syscall
    /// number/attr layout for it here). Everything compiles to no-ops.
    #[derive(Default)]
    pub struct Inner;

    pub fn open() -> Result<Inner, String> {
        Err("perf counters unsupported on this platform (linux/x86_64 only)".to_string())
    }

    pub fn start(_inner: &Inner) {}

    pub fn stop(_inner: &Inner) -> Option<CounterReading> {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn open_never_panics_and_reports_state() {
        // Whether this kernel grants perf access or not, open() must
        // return a usable object whose two accessors agree.
        let c = ThreadCounters::open();
        assert_eq!(c.available(), c.why_unavailable().is_none());
        c.start();
        match c.stop() {
            Some(r) => {
                assert!(c.available());
                // A start/stop around nothing still retires the few
                // instructions of the ioctl path — or zero; both fine.
                let _ = r;
            }
            None => assert!(!c.available(), "available counters must produce a reading"),
        }
    }

    #[test]
    fn counting_counts_when_available() {
        let c = ThreadCounters::open();
        if !c.available() {
            // Locked-down kernel (CI container): the stub path is the
            // subject of the fault-injection test in v2v-embed.
            return;
        }
        c.start();
        // Busy work that cannot be optimized away.
        let mut acc = 0u64;
        for i in 0..1_000_000u64 {
            acc = acc.wrapping_mul(6364136223846793005).wrapping_add(i);
        }
        std::hint::black_box(acc);
        let r = c.stop().expect("available counters must read");
        assert!(r.instructions > 100_000, "1M LCG steps retire >100k instructions, got {r:?}");
        assert!(r.cycles > 0);
    }

    #[test]
    fn injected_denial_degrades_to_stub() {
        let armed =
            v2v_fault::arm("obs.perf_open", v2v_fault::FaultPlan::always(v2v_fault::Fault::Error));
        let c = ThreadCounters::open();
        drop(armed);
        assert!(!c.available());
        assert!(c.why_unavailable().unwrap().contains("obs.perf_open"));
        c.start();
        assert_eq!(c.stop(), None, "denied counters must read as None, not fake zeros");
        assert!(probe().is_ok() || probe().is_err()); // probe() must not panic either
    }
}
