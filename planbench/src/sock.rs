//! The two socket calls the standard library lacks.
//!
//! - [`readable`] waits with a sub-millisecond timeout. `SO_RCVTIMEO`
//!   rounds up to whole scheduler ticks (up to 10 ms), which would make
//!   the open-loop generator send late; `ppoll` takes nanoseconds.
//! - [`quickack`] acknowledges received data at once. The daemon leaves
//!   Nagle's algorithm on, so a second pipelined response waits until
//!   the first is acknowledged; with the client's default delayed ACK
//!   that wait is about 40 ms per response.

use std::ffi::{c_int, c_long, c_short, c_uint, c_ulong, c_void};
use std::io;
use std::net::TcpStream;
use std::os::fd::AsRawFd;
use std::time::Duration;

#[repr(C)]
struct PollFd {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

/// `struct timespec` on Linux, where `time_t` is a `long`.
#[repr(C)]
struct Timespec {
    tv_sec: c_long,
    tv_nsec: c_long,
}

const POLLIN: c_short = 0x001;
const IPPROTO_TCP: c_int = 6;
const TCP_QUICKACK: c_int = 12;

extern "C" {
    fn setsockopt(fd: c_int, level: c_int, name: c_int, value: *const c_void, len: c_uint)
        -> c_int;
    fn ppoll(
        fds: *mut PollFd,
        nfds: c_ulong,
        timeout: *const Timespec,
        sigmask: *const c_void,
    ) -> c_int;
}

/// Waits up to `timeout` for `stream` to have bytes (or an EOF or
/// error) to read; `Ok(false)` on timeout.
pub fn readable(stream: &TcpStream, timeout: Duration) -> io::Result<bool> {
    let mut fd = PollFd {
        fd: stream.as_raw_fd(),
        events: POLLIN,
        revents: 0,
    };
    let ts = Timespec {
        tv_sec: c_long::try_from(timeout.as_secs()).unwrap_or(c_long::MAX),
        tv_nsec: c_long::from(timeout.subsec_nanos()),
    };
    // SAFETY: `fd` and `ts` are live locals for the whole call, `nfds`
    // is 1 to match the single `PollFd`, and a null signal mask asks
    // ppoll to leave the mask unchanged.
    let n = unsafe { ppoll(&mut fd, 1, &ts, std::ptr::null()) };
    match n {
        -1 => {
            let e = io::Error::last_os_error();
            if e.kind() == io::ErrorKind::Interrupted {
                Ok(false)
            } else {
                Err(e)
            }
        }
        0 => Ok(false),
        _ => Ok(true),
    }
}

/// Turns on `TCP_QUICKACK`. The kernel clears it again as it sees fit,
/// so callers set it after every read.
pub fn quickack(stream: &TcpStream) -> io::Result<()> {
    let on: c_int = 1;
    // SAFETY: `on` is a live local `int` and `len` is its exact size, as
    // `setsockopt` requires for an integer option.
    let ret = unsafe {
        setsockopt(
            stream.as_raw_fd(),
            IPPROTO_TCP,
            TCP_QUICKACK,
            (&on as *const c_int).cast(),
            std::mem::size_of::<c_int>() as c_uint,
        )
    };
    if ret == 0 {
        Ok(())
    } else {
        Err(io::Error::last_os_error())
    }
}
