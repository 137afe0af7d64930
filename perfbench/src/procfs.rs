//! Readers for the `/proc` files the benchmark samples: per-thread CPU
//! time (to attribute filter work to the engine's shard threads) and
//! the process's peak resident set size.

use std::fs;

/// Clock ticks per second in `/proc/*/stat` time fields. The kernel
/// reports these in `USER_HZ`, which is fixed at 100 on Linux ABIs.
pub const USER_HZ: f64 = 100.0;

/// Thread name prefix of the ingest engine's shard workers
/// (`pla-ingest-shard-N`, truncated by the kernel to 15 bytes).
pub const SHARD_THREAD_PREFIX: &str = "pla-ingest-sh";

/// Parses one `/proc/<pid>/task/<tid>/stat` line into the thread's
/// name and its `utime + stime` in clock ticks.
///
/// The name sits in parentheses and may itself contain spaces or
/// parentheses, so fields are counted from the *last* `)`.
pub fn parse_task_stat(stat: &str) -> Option<(&str, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    if close < open {
        return None;
    }
    let name = &stat[open + 1..close];
    // After the name: field 3 (state) is index 0, so utime (field 14)
    // is index 11 and stime (field 15) index 12.
    let mut fields = stat[close + 1..].split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((name, utime + stime))
}

/// Summed CPU seconds of this process's live threads whose name starts
/// with `prefix`.
pub fn threads_cpu_seconds(prefix: &str) -> f64 {
    let Ok(dir) = fs::read_dir("/proc/self/task") else { return 0.0 };
    let mut ticks = 0u64;
    for entry in dir.flatten() {
        let Ok(stat) = fs::read_to_string(entry.path().join("stat")) else { continue };
        if let Some((name, t)) = parse_task_stat(&stat) {
            if name.starts_with(prefix) {
                ticks += t;
            }
        }
    }
    ticks as f64 / USER_HZ
}

/// Parses the `VmHWM` (peak resident set) line of a `/proc/*/status`
/// file, in kB.
pub fn parse_vm_hwm_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line["VmHWM:".len()..].split_whitespace().next()?.parse().ok()
}

/// This process's peak resident set size in MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = fs::read_to_string("/proc/self/status").ok()?;
    parse_vm_hwm_kb(&status).map(|kb| kb as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    const SHARD: &str = "4242 (pla-ingest-shar) S 4200 4200 17 34816 4200 1077952576 \
        118 0 0 0 731 29 0 0 20 0 3 0 889213 310951936 1532 18446744073709551615 \
        1 1 0 0 0 0 0 4096 1260 0 0 0 -1 1 0 0 0 0 0";

    #[test]
    fn parses_name_and_cpu_ticks() {
        assert_eq!(parse_task_stat(SHARD), Some(("pla-ingest-shar", 731 + 29)));
    }

    #[test]
    fn names_with_spaces_and_parens_do_not_shift_fields() {
        let odd = SHARD.replace("(pla-ingest-shar)", "(we(ird) name )");
        assert_eq!(parse_task_stat(&odd), Some(("we(ird) name ", 760)));
    }

    #[test]
    fn truncated_or_garbled_lines_are_rejected() {
        assert_eq!(parse_task_stat(""), None);
        assert_eq!(parse_task_stat("12 (x) S 1 2 3"), None);
        assert_eq!(parse_task_stat(&SHARD.replace("731", "seven")), None);
        assert_eq!(parse_task_stat(") 1 2 ("), None);
    }

    #[test]
    fn this_thread_is_readable() {
        // The test thread itself has a stat file; its CPU time parses.
        let own = fs::read_to_string("/proc/thread-self/stat").unwrap();
        assert!(parse_task_stat(&own).is_some());
        assert_eq!(threads_cpu_seconds("no-such-thread-name"), 0.0);
    }

    #[test]
    fn parses_peak_rss() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_vm_hwm_kb(status), Some(2048));
        assert_eq!(parse_vm_hwm_kb("Name:\tx\n"), None);
        assert!(peak_rss_mb().unwrap() > 0.0);
    }
}
