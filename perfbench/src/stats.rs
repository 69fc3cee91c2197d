//! The benchmark's clock and the summary statistics it reports.

use std::time::Instant;

/// The one wall-clock read of the benchmark.
pub fn now() -> Instant {
    // chiarolint: allow(D1) -- the benchmark measures wall-clock time on purpose
    Instant::now()
}

/// Seconds elapsed since `start`.
pub fn secs_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64()
}

/// Times one call, returning its result and its wall time in seconds.
pub fn time<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let start = now();
    let out = f();
    (out, secs_since(start))
}

/// The median of `values` (mean of the middle pair for an even count).
///
/// # Panics
/// Panics on an empty slice or a NaN.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut sorted = values.to_vec();
    sorted.sort_by(|a, b| a.partial_cmp(b).expect("timings are never NaN"));
    let mid = sorted.len() / 2;
    if sorted.len() % 2 == 1 {
        sorted[mid]
    } else {
        0.5 * (sorted[mid - 1] + sorted[mid])
    }
}

/// Peak resident-set size of this process in MB (`VmHWM`), if the
/// platform reports it.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find_map(|l| l.strip_prefix("VmHWM:"))?;
    let kb: f64 = line.trim().trim_end_matches("kB").trim().parse().ok()?;
    Some(kb / 1024.0)
}

/// Limbs per operand of the host-speed kernel (a 2048-bit `n²`).
const KERNEL_LIMBS: usize = 32;

/// What [`host_speed`] takes, in seconds, at full speed on the 2-core
/// Xeon VM the bounds were set on.  Timings are rescaled to this speed.
const REFERENCE_KERNEL_S: f64 = 0.0045;

/// Wall seconds of a fixed, benchmark-owned kernel: 4 000 schoolbook
/// products of 32-limb operands, about 5 ms.  It shares no code with the
/// repository, so no change to the program can move it; only the host's
/// speed does.
pub fn host_speed() -> f64 {
    let a: Vec<u64> = (1..=KERNEL_LIMBS as u64)
        .map(|i| i.wrapping_mul(0x9E37_79B9_7F4A_7C15))
        .collect();
    let b: Vec<u64> = (1..=KERNEL_LIMBS as u64)
        .map(|i| i.wrapping_mul(0xC2B2_AE3D_27D4_EB4F))
        .collect();
    let mut product = vec![0u64; 2 * KERNEL_LIMBS];
    time(|| {
        for _ in 0..4_000 {
            product.fill(0);
            for (i, &x) in std::hint::black_box(&a).iter().enumerate() {
                let mut carry = 0u128;
                for (j, &y) in b.iter().enumerate() {
                    let v = u128::from(x) * u128::from(y) + u128::from(product[i + j]) + carry;
                    product[i + j] = v as u64;
                    carry = v >> 64;
                }
                product[i + KERNEL_LIMBS] = carry as u64;
            }
            std::hint::black_box(&product);
        }
    })
    .1
}

/// How strongly the workloads follow the kernel: when the host slows the
/// kernel by a factor `f`, it slows the workloads by about `f^0.75` (the
/// kernel is pure multiply-accumulate, the workloads also wait on memory
/// and branches).  Fitted on ten invocations of each workload.
const WORKLOAD_SENSITIVITY: f64 = 0.75;

/// The factor that rescales a wall time measured between two host-speed
/// readings to the reference speed.
pub fn to_reference(before: f64, after: f64) -> f64 {
    (REFERENCE_KERNEL_S / (0.5 * (before + after))).powf(WORKLOAD_SENSITIVITY)
}
