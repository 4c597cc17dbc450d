//! An `xhybrid serve` child process on a loopback port, stopped and
//! reaped when dropped.

use std::io::{BufRead, BufReader};
use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, ChildStdout, Command, Stdio};

use crate::metrics_page::Page;

pub struct Daemon {
    child: Child,
    /// Held open so a late write to stdout cannot fail in the daemon.
    _stdout: BufReader<ChildStdout>,
    pub addr: SocketAddr,
    store: PathBuf,
}

impl Daemon {
    /// Starts `binary serve` with its defaults apart from a free port
    /// and a fresh plan store at `store`, and waits until it listens.
    pub fn start(binary: &Path, store: &Path) -> Result<Daemon, String> {
        let _ = std::fs::remove_dir_all(store);
        let mut child = Command::new(binary)
            .arg("serve")
            .args(["--addr", "127.0.0.1:0", "--store"])
            .arg(store)
            .stdin(Stdio::null())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit())
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", binary.display()))?;
        let mut line = String::new();
        let mut stdout = BufReader::new(child.stdout.take().expect("stdout is piped"));
        let read = stdout.read_line(&mut line);
        let addr = line
            .trim()
            .strip_prefix("listening on ")
            .and_then(|a| a.parse().ok());
        let mut daemon = Daemon {
            child,
            _stdout: stdout,
            addr: "127.0.0.1:0".parse().expect("literal address"),
            store: store.to_path_buf(),
        };
        match (read, addr) {
            (Ok(_), Some(addr)) => {
                daemon.addr = addr;
                Ok(daemon)
            }
            _ => Err(format!("daemon did not report its address (got {line:?})")),
        }
    }

    pub fn metrics(&self) -> Result<Page, String> {
        let r = xhc_serve::client::get(self.addr, "/metrics")
            .map_err(|e| format!("GET /metrics: {e}"))?;
        if r.status != 200 {
            return Err(format!("GET /metrics answered {}", r.status));
        }
        Ok(Page::parse(&String::from_utf8_lossy(&r.body)))
    }

    /// The daemon's peak resident set (`VmHWM`) in MiB.
    pub fn peak_rss_mb(&self) -> f64 {
        peak_rss_mb(self.child.id())
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
        let _ = std::fs::remove_dir_all(&self.store);
    }
}

/// `VmHWM` of a process in MiB, or 0 when unreadable.
pub fn peak_rss_mb(pid: u32) -> f64 {
    std::fs::read_to_string(format!("/proc/{pid}/status"))
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}
