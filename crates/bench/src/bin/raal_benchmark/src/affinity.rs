//! CPU affinity of the calling thread — the two libc calls std does not
//! wrap, and the only `unsafe` in the benchmark. A thread spawned later
//! inherits the affinity its parent had at that moment, which is how the
//! service's threads and the clients are placed: the main thread restricts
//! itself *before* it starts them (see [`crate::drive::Placement`]).

/// Bit `c` of word `c / 64` set = CPU `c` allowed. 1024 CPUs, the size of
/// glibc's `cpu_set_t`.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CpuSet([u64; 16]);

impl CpuSet {
    pub fn single(cpu: usize) -> Self {
        let mut words = [0u64; 16];
        words[cpu / 64] = 1 << (cpu % 64);
        Self(words)
    }

    /// The allowed CPUs, ascending.
    pub fn cpus(&self) -> Vec<usize> {
        (0..self.0.len() * 64)
            .filter(|c| self.0[c / 64] >> (c % 64) & 1 == 1)
            .collect()
    }
}

#[cfg(target_os = "linux")]
mod sys {
    extern "C" {
        pub fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        pub fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }
}

/// The CPUs the calling thread may run on; `None` where the platform
/// cannot say.
pub fn allowed() -> Option<CpuSet> {
    #[cfg(target_os = "linux")]
    {
        let mut set = CpuSet([0; 16]);
        // SAFETY: `mask` points to `size_of_val(&set.0)` writable bytes
        // that live across the call; pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_getaffinity(0, std::mem::size_of_val(&set.0), set.0.as_mut_ptr()) };
        (rc == 0).then_some(set)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// Restricts the calling thread, and every thread it spawns from now on,
/// to `set`. Returns whether the kernel accepted it.
pub fn restrict_to(set: &CpuSet) -> bool {
    #[cfg(target_os = "linux")]
    {
        // SAFETY: `mask` points to `size_of_val(&set.0)` readable bytes
        // that live across the call; pid 0 names the calling thread.
        let rc =
            unsafe { sys::sched_setaffinity(0, std::mem::size_of_val(&set.0), set.0.as_ptr()) };
        rc == 0 && allowed() == Some(*set)
    }
    #[cfg(not(target_os = "linux"))]
    {
        let _ = set;
        false
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_sets_list_their_cpus() {
        assert_eq!(CpuSet::single(0).cpus(), vec![0]);
        assert_eq!(CpuSet::single(70).cpus(), vec![70]);
        let mut both = CpuSet::single(3);
        both.0[1] |= 1 << 6;
        assert_eq!(both.cpus(), vec![3, 70]);
    }

    #[test]
    fn a_thread_can_narrow_itself_and_its_children_inherit_that() {
        // On its own thread: affinity is per thread, and tests share a process.
        std::thread::spawn(|| {
            let Some(before) = allowed() else {
                return; // not Linux
            };
            let last = *before.cpus().last().expect("a running thread is allowed somewhere");
            assert!(restrict_to(&CpuSet::single(last)));
            assert_eq!(allowed().map(|s| s.cpus()), Some(vec![last]));
            let child = std::thread::spawn(allowed).join().unwrap();
            assert_eq!(child.map(|s| s.cpus()), Some(vec![last]));
            assert!(restrict_to(&before));
            assert_eq!(allowed(), Some(before));
        })
        .join()
        .unwrap();
    }
}
