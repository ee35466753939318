//! One CPU at a time.  The host's slow mode (a busy neighbour on the sibling
//! hyperthread) comes and goes on each vCPU independently, and an op that
//! crosses to the shard thread is quiet only while every CPU it touches is.
//! So each block runs wholly on one CPU — the bench thread is confined to it
//! before the block builds its service, and the shard thread inherits the
//! confinement — and successive blocks take the allowed CPUs in turn, which
//! gives every position of the op schedule its samples on each of them.  The
//! closed loop never has both threads busy at once, so one CPU costs it no
//! speed.

/// The CPUs this process may run on, as found at start-up.
pub struct Cpus {
    allowed: Vec<usize>,
}

/// `cpu_set_t`: 1024 bits.
type Mask = [u64; 16];

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const u64) -> i32;
}

impl Cpus {
    /// The calling thread's affinity mask; empty (and `pin` a no-op) where it
    /// cannot be read.
    pub fn allowed() -> Cpus {
        let mut mask: Mask = [0; 16];
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a writable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        let known =
            unsafe { sched_getaffinity(0, std::mem::size_of::<Mask>(), mask.as_mut_ptr()) } == 0;
        #[cfg(not(target_os = "linux"))]
        let known = false;
        let allowed = (0..mask.len() * 64)
            .filter(|cpu| known && mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect();
        Cpus { allowed }
    }

    /// Confine the calling thread, and the threads it starts from now on, to
    /// the allowed CPU whose turn it is.  A refusal leaves the thread where it
    /// was, which costs steadiness and nothing else.
    pub fn pin(&self, turn: usize) {
        if self.allowed.is_empty() {
            return;
        }
        let cpu = self.allowed[turn % self.allowed.len()];
        let mut mask: Mask = [0; 16];
        mask[cpu / 64] = 1 << (cpu % 64);
        #[cfg(target_os = "linux")]
        // SAFETY: `mask` is a readable buffer of exactly the size passed, and
        // pid 0 names the calling thread.
        unsafe {
            sched_setaffinity(0, std::mem::size_of::<Mask>(), mask.as_ptr());
        }
    }
}
