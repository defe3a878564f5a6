//! The acceptor's wait between bursts of connections.
//!
//! [`Server::run`](crate::Server::run) accepts until the non-blocking
//! listener reports `WouldBlock`, then calls [`wait`]. On unix that is
//! `poll(2)` on two descriptors: the listener and the read end of a
//! socket pair that [`Wake::wake`] shuts down. It returns the moment a
//! connection lands or shutdown is requested through
//! [`ServerHandle::shutdown`](crate::ServerHandle::shutdown), so no
//! request waits on a timer. The SIGTERM/ctrl-c handler only sets a
//! flag, so the poll's timeout ([`SIGNAL_CHECK`]) bounds how late that
//! flag is seen. Elsewhere the wait is a 1 ms sleep.

use std::net::TcpListener;
use std::time::Duration;

/// Longest single wait: the acceptor re-reads the signal flag at least
/// this often.
pub(crate) const SIGNAL_CHECK: Duration = Duration::from_millis(100);

/// Pause after a failed accept other than an aborted handshake or an
/// interrupt. Under `EMFILE`/`ENFILE` the pending connection stays in
/// the backlog and the listener stays readable, so retrying at once
/// would burn a core until a descriptor frees up.
pub(crate) const ERROR_PAUSE: Duration = Duration::from_millis(10);

/// The wait on platforms without `poll(2)`.
#[cfg(not(unix))]
const FALLBACK_SLEEP: Duration = Duration::from_millis(1);

/// Wakes an acceptor blocked in [`wait`]. Waking is permanent and
/// idempotent: once woken, every later wait returns at once.
pub(crate) struct Wake {
    #[cfg(unix)]
    tx: std::os::unix::net::UnixStream,
    #[cfg(unix)]
    rx: std::os::unix::net::UnixStream,
}

impl Wake {
    #[cfg(unix)]
    pub(crate) fn new() -> std::io::Result<Wake> {
        let (tx, rx) = std::os::unix::net::UnixStream::pair()?;
        Ok(Wake { tx, rx })
    }

    #[cfg(not(unix))]
    pub(crate) fn new() -> std::io::Result<Wake> {
        Ok(Wake {})
    }

    /// Make the read end readable (end of stream) for good.
    pub(crate) fn wake(&self) {
        #[cfg(unix)]
        {
            // A second call finds the write side already shut; nothing
            // to report either way.
            let _ = self.tx.shutdown(std::net::Shutdown::Write);
        }
    }
}

/// Block until `listener` has a connection to accept, `wake` fired, or
/// `timeout` passed. Returns whether either descriptor is ready; an
/// interrupted or failed poll reports `false` and the caller retries.
#[cfg(unix)]
pub(crate) fn wait(listener: &TcpListener, wake: &Wake, timeout: Duration) -> bool {
    use std::os::fd::AsRawFd;
    match sys::poll_readable([listener.as_raw_fd(), wake.rx.as_raw_fd()], timeout) {
        Ok(ready) => ready,
        Err(e) if e.kind() == std::io::ErrorKind::Interrupted => false,
        Err(_) => {
            // poll itself failed (out of memory): do not spin on it.
            std::thread::sleep(ERROR_PAUSE);
            false
        }
    }
}

#[cfg(not(unix))]
pub(crate) fn wait(_listener: &TcpListener, _wake: &Wake, timeout: Duration) -> bool {
    std::thread::sleep(timeout.min(FALLBACK_SLEEP));
    false
}

#[cfg(unix)]
mod sys {
    use std::ffi::{c_int, c_short};
    use std::os::fd::RawFd;
    use std::time::Duration;

    #[repr(C)]
    struct PollFd {
        fd: c_int,
        events: c_short,
        revents: c_short,
    }

    const POLLIN: c_short = 0x001;

    #[cfg(any(target_os = "linux", target_os = "android"))]
    type Nfds = std::ffi::c_ulong;
    #[cfg(not(any(target_os = "linux", target_os = "android")))]
    type Nfds = std::ffi::c_uint;

    extern "C" {
        // libc's poll(2); std already links libc on unix, so this adds
        // no dependency.
        fn poll(fds: *mut PollFd, nfds: Nfds, timeout: c_int) -> c_int;
    }

    /// `poll(2)` for `POLLIN` on `fds`. Errors, hang-ups and invalid
    /// descriptors count as ready too: the caller's next call on the
    /// descriptor reports them.
    pub fn poll_readable<const N: usize>(
        fds: [RawFd; N],
        timeout: Duration,
    ) -> std::io::Result<bool> {
        let mut polls = fds.map(|fd| PollFd {
            fd,
            events: POLLIN,
            revents: 0,
        });
        // Round up, so a sub-millisecond timeout still waits.
        let ms = timeout
            .as_nanos()
            .div_ceil(1_000_000)
            .min(c_int::MAX as u128) as c_int;
        // SAFETY: `polls` is a live, exclusively borrowed array of `N`
        // `struct pollfd`-layout entries for the whole call.
        let n = unsafe { poll(polls.as_mut_ptr(), N as Nfds, ms) };
        if n < 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(n > 0)
    }
}

#[cfg(all(test, unix))]
mod tests {
    use super::*;
    use std::net::TcpStream;
    use std::time::Instant;

    fn listener() -> TcpListener {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.set_nonblocking(true).unwrap();
        l
    }

    #[test]
    fn a_pending_connection_is_reported_at_once() {
        let l = listener();
        let wake = Wake::new().unwrap();
        let _client = TcpStream::connect(l.local_addr().unwrap()).unwrap();
        let started = Instant::now();
        assert!(wait(&l, &wake, Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        assert!(l.accept().is_ok());
    }

    #[test]
    fn nothing_pending_times_out_not_ready() {
        let l = listener();
        let wake = Wake::new().unwrap();
        let started = Instant::now();
        assert!(!wait(&l, &wake, Duration::from_millis(20)));
        assert!(
            started.elapsed() >= Duration::from_millis(20),
            "{:?}",
            started.elapsed()
        );
    }

    #[test]
    fn wake_ends_a_wait_from_another_thread_and_stays_set() {
        let l = listener();
        let wake = std::sync::Arc::new(Wake::new().unwrap());
        let waker = {
            let wake = std::sync::Arc::clone(&wake);
            std::thread::spawn(move || {
                std::thread::sleep(Duration::from_millis(50));
                wake.wake();
            })
        };
        let started = Instant::now();
        assert!(wait(&l, &wake, Duration::from_secs(5)));
        assert!(
            started.elapsed() < Duration::from_secs(1),
            "{:?}",
            started.elapsed()
        );
        waker.join().unwrap();
        wake.wake(); // idempotent
        assert!(wait(&l, &wake, Duration::from_secs(5)));
    }
}
