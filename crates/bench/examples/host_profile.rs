//! A host-time sampler: where does the simulator spend its own time?
//!
//! Runs one program's benchmark configuration (from
//! `hpmopt_workloads::setup`) several times under a `SIGPROF` interval
//! timer, records the program counter each tick interrupts, and
//! symbolizes the samples with `addr2line` (binutils). It prints the
//! sample count, each crate's share by the innermost inlined frame at
//! the sampled PC, the samples by outermost frame (the function, not
//! inlined, whose machine code holds the PC), and every function whose
//! code or inlined code holds at least one sample in a thousand. There
//! is no stack walk, so a function counts only the samples inside its
//! own body and the bodies inlined into it. The function list counts a
//! sample in every function it is inlined into, so it cannot split a
//! caller from an inlined callee; the outermost frame counts each
//! sample once.
//!
//! ```text
//! cargo run --release -p hpmopt-bench --example host_profile -- db small planned monitored 12
//! cargo run --release -p hpmopt-bench --example host_profile -- lusearch tiny planned reference 80
//! cargo run --release -p hpmopt-bench --example host_profile -- jython small tiered monitored 100
//! ```
//!
//! `planned` is the benchmark's pre-generated compilation plan
//! (`db-coalloc`, `serve-mix`); `tiered` is the `jython-tiered` shape
//! (timer-driven tier 1, tier 2 and a 512-byte code cache).
//! `monitored` samples with PEBS and co-allocates; `reference` is the
//! unmonitored run. The heap is 4× the program's minimum at Tiny and
//! 2× at Small, as in the benchmark. Plan profiling runs before the
//! timer starts. The kernel delivers the timer at its tick, about 250
//! times per CPU-second, so a run of a few seconds yields about a
//! thousand samples: read each share with its count. Linux x86-64
//! only.

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn main() {
    if let Err(e) = sampler::main() {
        eprintln!("host_profile: {e}");
        eprintln!(
            "usage: host_profile <workload> <tiny|small> <planned|tiered> \
             <monitored|reference> <runs>"
        );
        std::process::exit(1);
    }
}

#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn main() {
    eprintln!("host_profile runs only on Linux x86-64");
    std::process::exit(1);
}

#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
mod sampler {
    use std::collections::{BTreeMap, BTreeSet, HashSet};
    use std::ffi::c_void;
    use std::io::Write;
    use std::process::{Command, Stdio};
    use std::sync::atomic::{AtomicU64, AtomicUsize, Ordering};
    use std::time::Instant;

    use hpmopt_core::runtime::RunConfig;
    use hpmopt_gc::CollectorKind;
    use hpmopt_hpm::SamplingInterval;
    use hpmopt_workloads::{by_name, setup, Size, Workload};

    /// Samples kept; later ticks are counted but not stored.
    const CAPACITY: usize = 1 << 16;
    const ITIMER_PROF: i32 = 2;
    const SIGPROF: i32 = 27;
    const SA_SIGINFO: i32 = 4;
    const SA_RESTART: i32 = 0x1000_0000;
    /// Byte offset of `uc_mcontext.gregs[REG_RIP]` in the x86-64 Linux
    /// `ucontext_t`: 40 bytes of flags, link and stack, then register 16.
    const RIP_OFFSET: usize = 40 + 16 * 8;
    /// Requested interval; the kernel rounds it up to its tick.
    const INTERVAL_US: i64 = 1_000;
    /// A function is listed when it holds at least this many samples
    /// per thousand, so one that a change shrinks stays readable down
    /// to that share.
    const MIN_SHARE_PER_MILLE: usize = 1;

    // The process runs on one thread while the timer is armed, so the
    // handler interrupts the thread that later reads these: relaxed
    // accesses suffice.
    static PCS: [AtomicU64; CAPACITY] = [const { AtomicU64::new(0) }; CAPACITY];
    static TAKEN: AtomicUsize = AtomicUsize::new(0);

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct Timeval {
        tv_sec: i64,
        tv_usec: i64,
    }

    #[repr(C)]
    struct Itimerval {
        it_interval: Timeval,
        it_value: Timeval,
    }

    /// glibc's x86-64 `struct sigaction`.
    #[repr(C)]
    struct SigAction {
        sa_sigaction: usize,
        sa_mask: [u64; 16],
        sa_flags: i32,
        sa_restorer: usize,
    }

    unsafe extern "C" {
        fn setitimer(which: i32, new: *const Itimerval, old: *mut Itimerval) -> i32;
        fn sigaction(signum: i32, act: *const SigAction, old: *mut SigAction) -> i32;
    }

    /// The `SIGPROF` handler: store the interrupted PC. Only atomics, so
    /// it is async-signal-safe.
    extern "C" fn on_tick(_signum: i32, _info: *mut c_void, ucontext: *mut c_void) {
        // SAFETY: with SA_SIGINFO the kernel passes a valid `ucontext_t`
        // as the third argument, and on x86-64 Linux its saved `rip` is
        // the 8-byte-aligned word at RIP_OFFSET.
        let pc = unsafe { ucontext.cast::<u8>().add(RIP_OFFSET).cast::<u64>().read() };
        let i = TAKEN.fetch_add(1, Ordering::Relaxed);
        if let Some(slot) = PCS.get(i) {
            slot.store(pc, Ordering::Relaxed);
        }
    }

    /// Arm (`interval_us > 0`) or disarm the process CPU-time timer.
    fn set_timer(interval_us: i64) -> Result<(), String> {
        let t = Timeval {
            tv_sec: 0,
            tv_usec: interval_us,
        };
        let spec = Itimerval {
            it_interval: t,
            it_value: t,
        };
        // SAFETY: `spec` is a valid `itimerval` for the call's duration
        // and a null old value is allowed.
        if unsafe { setitimer(ITIMER_PROF, &spec, std::ptr::null_mut()) } != 0 {
            return Err(format!("setitimer: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }

    fn install_handler() -> Result<(), String> {
        let handler: extern "C" fn(i32, *mut c_void, *mut c_void) = on_tick;
        let act = SigAction {
            sa_sigaction: handler as usize,
            sa_mask: [0; 16],
            sa_flags: SA_SIGINFO | SA_RESTART,
            sa_restorer: 0,
        };
        // SAFETY: `act` has glibc's x86-64 `struct sigaction` layout, the
        // handler has the three-argument SA_SIGINFO signature, and a null
        // old action is allowed.
        if unsafe { sigaction(SIGPROF, &act, std::ptr::null_mut()) } != 0 {
            return Err(format!("sigaction: {}", std::io::Error::last_os_error()));
        }
        Ok(())
    }

    struct Args {
        workload: Workload,
        size: Size,
        tiered: bool,
        monitored: bool,
        runs: u32,
    }

    fn parse(args: &[String]) -> Result<Args, String> {
        let [name, size, shape, mode, runs] = args else {
            return Err("expected five arguments".into());
        };
        let size = match size.as_str() {
            "tiny" => Size::Tiny,
            "small" => Size::Small,
            s => return Err(format!("unknown size {s:?}")),
        };
        let workload = by_name(name, size).ok_or(format!("unknown workload {name:?}"))?;
        let tiered = match shape.as_str() {
            "planned" => false,
            "tiered" => true,
            s => return Err(format!("unknown shape {s:?}")),
        };
        let monitored = match mode.as_str() {
            "monitored" => true,
            "reference" => false,
            s => return Err(format!("unknown mode {s:?}")),
        };
        let runs = runs
            .parse()
            .ok()
            .filter(|&n: &u32| n > 0)
            .ok_or(format!("runs must be a positive count, not {runs:?}"))?;
        Ok(Args {
            workload,
            size,
            tiered,
            monitored,
            runs,
        })
    }

    /// The benchmark's run configuration for `a` (plan profiling, if
    /// any, runs here).
    fn config(a: &Args) -> RunConfig {
        let w = &a.workload;
        let mult = if a.size == Size::Tiny { 4 } else { 2 };
        let heap = setup::heap_config(w, mult, 1, CollectorKind::GenMs);
        let mut cfg = if a.monitored {
            setup::run_config(w, a.size, heap, setup::auto_interval(), true)
        } else {
            setup::run_config(w, a.size, heap, SamplingInterval::Off, false)
        };
        if a.tiered {
            setup::tiered(&mut cfg.vm);
        }
        cfg
    }

    /// The address range this executable is mapped at: from its mapping
    /// at file offset 0, which `addr2line` addresses are relative to, to
    /// the end of its last mapping.
    fn exe_range(exe: &str) -> Result<(u64, u64), String> {
        let maps = std::fs::read_to_string("/proc/self/maps").map_err(|e| e.to_string())?;
        let (mut base, mut end) = (None, 0);
        for l in maps.lines() {
            let f: Vec<&str> = l.split_whitespace().collect();
            if f.get(5) != Some(&exe) {
                continue;
            }
            let (lo, hi) = f[0].split_once('-').ok_or("bad /proc/self/maps line")?;
            let parse = |x| u64::from_str_radix(x, 16).map_err(|e| e.to_string());
            if f.get(2) == Some(&"00000000") {
                base = Some(parse(lo)?);
            }
            end = end.max(parse(hi)?);
        }
        let base = base.ok_or_else(|| format!("no mapping of {exe} in /proc/self/maps"))?;
        Ok((base, end))
    }

    /// One symbolized frame: function and source file.
    struct Frame {
        function: String,
        file: String,
    }

    /// Symbolize `addrs` (relative to the executable): each address's
    /// inlined frames, innermost first.
    fn symbolize(exe: &str, addrs: &[u64]) -> Result<Vec<Vec<Frame>>, String> {
        let mut child = Command::new("addr2line")
            .args(["-a", "-f", "-i", "-C", "-e", exe])
            .stdin(Stdio::piped())
            .stdout(Stdio::piped())
            .spawn()
            .map_err(|e| format!("addr2line: {e}"))?;
        let input: String = addrs.iter().map(|a| format!("{a:#x}\n")).collect();
        // Feed the addresses from a second thread: with more than a pipe
        // buffer of them, addr2line blocks on its output until it is read.
        let mut stdin = child.stdin.take().expect("piped stdin");
        let feeder = std::thread::spawn(move || stdin.write_all(input.as_bytes()));
        let out = child
            .wait_with_output()
            .map_err(|e| format!("addr2line: {e}"))?;
        feeder
            .join()
            .expect("the feeder thread does not panic")
            .map_err(|e| format!("addr2line: {e}"))?;
        let text = String::from_utf8_lossy(&out.stdout);
        let mut all: Vec<Vec<Frame>> = Vec::new();
        let mut lines = text.lines();
        while let Some(line) = lines.next() {
            if line.starts_with("0x") {
                all.push(Vec::new());
            } else if let Some(frames) = all.last_mut() {
                let file = lines.next().unwrap_or("??").to_string();
                frames.push(Frame {
                    function: line.to_string(),
                    file,
                });
            }
        }
        if all.len() != addrs.len() {
            return Err(format!(
                "addr2line answered {} of {} addresses",
                all.len(),
                addrs.len()
            ));
        }
        Ok(all)
    }

    /// The crate a source file belongs to: `crates/<name>/` in this
    /// workspace; `library/<name>/` or `deps/<name>/` in the standard
    /// library (marked, as the standard `core` is not this workspace's
    /// `core`); otherwise the file itself.
    fn crate_of(file: &str) -> String {
        let name = |root: &str| {
            let i = file.rfind(root)?;
            file[i + root.len()..].split('/').next().map(str::to_string)
        };
        if let Some(c) = name("crates/") {
            c
        } else if let Some(c) = name("library/").or_else(|| name("deps/")) {
            format!("{c} (std)")
        } else if file.starts_with("??") {
            "? (no line info)".into()
        } else {
            file.split(':').next().unwrap_or(file).to_string()
        }
    }

    fn pct(n: usize, total: usize) -> f64 {
        100.0 * n as f64 / total.max(1) as f64
    }

    pub fn main() -> Result<(), String> {
        let argv: Vec<String> = std::env::args().skip(1).collect();
        let a = parse(&argv)?;
        let cfg = config(&a);
        install_handler()?;
        let t0 = Instant::now();
        set_timer(INTERVAL_US)?;
        for _ in 0..a.runs {
            let r = setup::run(&a.workload, cfg.clone());
            std::hint::black_box(r.result_digest);
        }
        set_timer(0)?;
        let wall = t0.elapsed().as_secs_f64();
        let taken = TAKEN.load(Ordering::Relaxed);
        let kept = taken.min(CAPACITY);
        let pcs: Vec<u64> = PCS[..kept]
            .iter()
            .map(|p| p.load(Ordering::Relaxed))
            .collect();

        let exe = std::env::current_exe().map_err(|e| e.to_string())?;
        let exe = exe.to_string_lossy().into_owned();
        let (base, end) = exe_range(&exe)?;
        let relative = |pc: u64| (base..end).contains(&pc).then(|| pc - base);
        let inside: Vec<u64> = pcs
            .iter()
            .filter_map(|&pc| relative(pc))
            .collect::<BTreeSet<u64>>()
            .into_iter()
            .collect();
        let frames = symbolize(&exe, &inside)?;
        let by_addr: BTreeMap<u64, &Vec<Frame>> = inside.iter().copied().zip(&frames).collect();

        const OUTSIDE: &str = "(outside the executable: libc, vdso)";
        let mut crates: BTreeMap<String, usize> = BTreeMap::new();
        let mut outermost: BTreeMap<&str, usize> = BTreeMap::new();
        let mut functions: BTreeMap<&str, usize> = BTreeMap::new();
        for &pc in &pcs {
            let Some(fs) = relative(pc).and_then(|r| by_addr.get(&r)) else {
                *crates.entry(OUTSIDE.into()).or_default() += 1;
                *outermost.entry(OUTSIDE).or_default() += 1;
                continue;
            };
            let innermost = fs.first().map_or_else(|| "?".into(), |f| crate_of(&f.file));
            *crates.entry(innermost).or_default() += 1;
            // addr2line -i prints the inlined frames innermost first.
            *outermost
                .entry(fs.last().map_or("?", |f| f.function.as_str()))
                .or_default() += 1;
            let distinct: HashSet<&str> = fs.iter().map(|f| f.function.as_str()).collect();
            for f in distinct {
                *functions.entry(f).or_default() += 1;
            }
        }

        let n = pcs.len();
        let shape = if a.tiered { "tiered" } else { "planned" };
        let mode = if a.monitored {
            "monitored"
        } else {
            "reference"
        };
        println!(
            "host_profile: {} {} {shape} {mode}, {} runs, {wall:.2} s",
            a.workload.name, a.size, a.runs
        );
        println!(
            "samples: {n} (SIGPROF at the kernel tick; one standard error of a share is at most {:.1} points)",
            50.0 / (n.max(1) as f64).sqrt()
        );
        if taken > kept {
            println!("({} later ticks were not stored)", taken - kept);
        }
        println!("\nby crate of the innermost inlined frame");
        let mut rows: Vec<(String, usize)> = crates.into_iter().collect();
        rows.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(&y.0)));
        for (name, c) in &rows {
            println!("  {:>6.1} %  {c:>7}  {name}", pct(*c, n));
        }
        println!(
            "\nby outermost frame (the function, not inlined, whose code holds the sample), \
             at least {MIN_SHARE_PER_MILLE} per mille"
        );
        print_listed(outermost, n);
        println!(
            "\nfunctions with at least {MIN_SHARE_PER_MILLE} per mille of the samples, counting \
             the samples in their body and in code inlined into it"
        );
        print_listed(functions, n);
        Ok(())
    }

    /// Print the rows with at least [`MIN_SHARE_PER_MILLE`] of the `n`
    /// samples, largest first, and how many fall below.
    fn print_listed(counts: BTreeMap<&str, usize>, n: usize) {
        let (mut rows, below): (Vec<(&str, usize)>, Vec<_>) = counts
            .into_iter()
            .partition(|&(_, c)| c * 1000 >= MIN_SHARE_PER_MILLE * n);
        rows.sort_by(|x, y| y.1.cmp(&x.1).then_with(|| x.0.cmp(y.0)));
        for (name, c) in &rows {
            println!("  {:>6.1} %  {c:>7}  {name}", pct(*c, n));
        }
        if !below.is_empty() {
            println!("  ({} functions below it)", below.len());
        }
    }
}
