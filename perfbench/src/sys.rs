//! Process memory figures from `/proc/self/status` (Linux).

/// A `/proc/self/status` field such as `VmHWM`, in MiB. `None` where the
/// file or the field does not exist.
pub fn status_mb(field: &str) -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    parse_status_kb(&status, field).map(|kb| kb as f64 / 1024.0)
}

fn parse_status_kb(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// Resident set size now, in MiB (0 where unknown).
pub fn rss_mb() -> f64 {
    status_mb("VmRSS").unwrap_or(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_kb_fields() {
        let s = "Name:\tx\nVmHWM:\t  2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_status_kb(s, "VmHWM"), Some(2048));
        assert_eq!(parse_status_kb(s, "VmRSS"), Some(1024));
        assert_eq!(parse_status_kb(s, "VmSwap"), None);
        assert_eq!(parse_status_kb("VmHWMx: 1 kB", "VmHWM"), None);
    }
}
