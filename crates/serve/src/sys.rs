//! Thin, std-only wrappers over the handful of Linux syscalls the event
//! loop needs: `epoll` for readiness notification, `setsockopt` for socket
//! buffer tuning (test torture harnesses shrink them to force partial
//! reads/writes), and `setrlimit` so a 10k-connection server can raise its
//! own file-descriptor ceiling.
//!
//! No `libc` crate: like [`crate::signal`], these are `extern "C"`
//! declarations against the C runtime Rust already links on Linux. The
//! module only exists on `target_os = "linux"`, which is why serving and
//! balancing are Linux-only.

use std::io;
use std::os::fd::RawFd;
use std::os::raw::{c_int, c_void};

/// Readable readiness (`EPOLLIN`).
pub const EPOLLIN: u32 = 0x001;
/// Writable readiness (`EPOLLOUT`).
pub const EPOLLOUT: u32 = 0x004;
/// Error condition (`EPOLLERR`; always reported, never needs registering).
pub const EPOLLERR: u32 = 0x008;
/// Hangup (`EPOLLHUP`; always reported).
pub const EPOLLHUP: u32 = 0x010;
/// Peer shut down its writing half (`EPOLLRDHUP`).
pub const EPOLLRDHUP: u32 = 0x2000;

const EPOLL_CTL_ADD: c_int = 1;
const EPOLL_CTL_DEL: c_int = 2;
const EPOLL_CTL_MOD: c_int = 3;
const EPOLL_CLOEXEC: c_int = 0o2000000;

const SOL_SOCKET: c_int = 1;
const SO_RCVBUF: c_int = 8;
const SO_SNDBUF: c_int = 7;

const RLIMIT_NOFILE: c_int = 7;

/// One readiness event, in the kernel's ABI layout. On x86-64 the kernel
/// packs the struct (no padding between `events` and `data`).
#[repr(C)]
#[cfg_attr(target_arch = "x86_64", repr(packed))]
#[derive(Clone, Copy, Default)]
pub struct EpollEvent {
    /// Bitmask of `EPOLL*` readiness flags.
    pub events: u32,
    /// Caller-chosen token identifying the registered fd.
    pub data: u64,
}

extern "C" {
    fn epoll_create1(flags: c_int) -> c_int;
    fn epoll_ctl(epfd: c_int, op: c_int, fd: c_int, event: *mut EpollEvent) -> c_int;
    fn epoll_wait(epfd: c_int, events: *mut EpollEvent, maxevents: c_int, timeout: c_int) -> c_int;
    fn close(fd: c_int) -> c_int;
    fn setsockopt(
        fd: c_int,
        level: c_int,
        optname: c_int,
        optval: *const c_void,
        optlen: u32,
    ) -> c_int;
    fn getrlimit(resource: c_int, rlim: *mut Rlimit) -> c_int;
    fn setrlimit(resource: c_int, rlim: *const Rlimit) -> c_int;
}

#[repr(C)]
struct Rlimit {
    rlim_cur: u64,
    rlim_max: u64,
}

fn cvt(ret: c_int) -> io::Result<c_int> {
    if ret < 0 {
        Err(io::Error::last_os_error())
    } else {
        Ok(ret)
    }
}

/// An owned epoll instance. Dropping it closes the kernel object.
pub struct Epoll {
    fd: RawFd,
}

impl Epoll {
    /// Creates a close-on-exec epoll instance.
    ///
    /// # Errors
    ///
    /// The raw `epoll_create1` failure, as an [`io::Error`].
    pub fn new() -> io::Result<Epoll> {
        let fd = unsafe { cvt(epoll_create1(EPOLL_CLOEXEC))? };
        Ok(Epoll { fd })
    }

    /// Registers `fd` for the readiness `events`, tagged with `token`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub fn add(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_ADD, fd, token, events)
    }

    /// Changes the readiness interest of an already-registered `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub fn modify(&self, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        self.ctl(EPOLL_CTL_MOD, fd, token, events)
    }

    /// Deregisters `fd`.
    ///
    /// # Errors
    ///
    /// The raw `epoll_ctl` failure.
    pub fn delete(&self, fd: RawFd) -> io::Result<()> {
        self.ctl(EPOLL_CTL_DEL, fd, 0, 0)
    }

    fn ctl(&self, op: c_int, fd: RawFd, token: u64, events: u32) -> io::Result<()> {
        let mut ev = EpollEvent {
            events,
            data: token,
        };
        unsafe { cvt(epoll_ctl(self.fd, op, fd, &mut ev))? };
        Ok(())
    }

    /// Blocks for up to `timeout_ms` (`-1` = forever) and fills `events`
    /// with ready fds, returning how many. `EINTR` is retried internally.
    ///
    /// # Errors
    ///
    /// The raw `epoll_wait` failure (never `EINTR`).
    pub fn wait(&self, events: &mut [EpollEvent], timeout_ms: i32) -> io::Result<usize> {
        loop {
            let n = unsafe {
                epoll_wait(
                    self.fd,
                    events.as_mut_ptr(),
                    events.len() as c_int,
                    timeout_ms,
                )
            };
            if n >= 0 {
                return Ok(n as usize);
            }
            let err = io::Error::last_os_error();
            if err.kind() != io::ErrorKind::Interrupted {
                return Err(err);
            }
        }
    }
}

impl Drop for Epoll {
    fn drop(&mut self) {
        unsafe {
            close(self.fd);
        }
    }
}

/// Shrinks (or grows) a socket's kernel send/receive buffers. The kernel
/// clamps to its own floor (~2304 bytes effective), which is still small
/// enough to force partial reads and writes of multi-kilobyte messages —
/// the EAGAIN-torture tests depend on exactly that.
///
/// # Errors
///
/// The raw `setsockopt` failure.
pub fn set_socket_buffers(fd: RawFd, recv_bytes: usize, send_bytes: usize) -> io::Result<()> {
    for (opt, bytes) in [(SO_RCVBUF, recv_bytes), (SO_SNDBUF, send_bytes)] {
        let val = bytes as c_int;
        unsafe {
            cvt(setsockopt(
                fd,
                SOL_SOCKET,
                opt,
                (&val as *const c_int).cast::<c_void>(),
                std::mem::size_of::<c_int>() as u32,
            ))?;
        }
    }
    Ok(())
}

/// Raises the process's soft open-file limit to its hard limit and returns
/// the resulting soft limit. A server fronting 10k connections needs >10k
/// descriptors; default soft limits (often 1024) would make `accept` fail
/// long before memory or CPU do.
///
/// # Errors
///
/// The raw `getrlimit`/`setrlimit` failure.
pub fn raise_nofile_limit() -> io::Result<u64> {
    let mut lim = Rlimit {
        rlim_cur: 0,
        rlim_max: 0,
    };
    unsafe { cvt(getrlimit(RLIMIT_NOFILE, &mut lim))? };
    if lim.rlim_cur < lim.rlim_max {
        lim.rlim_cur = lim.rlim_max;
        unsafe { cvt(setrlimit(RLIMIT_NOFILE, &lim))? };
    }
    Ok(lim.rlim_cur)
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};
    use std::net::{TcpListener, TcpStream};
    use std::os::fd::AsRawFd;

    #[test]
    fn epoll_reports_readable_sockets_by_token() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap();
        let mut client = TcpStream::connect(addr).unwrap();
        let (server, _) = listener.accept().unwrap();
        server.set_nonblocking(true).unwrap();

        let ep = Epoll::new().unwrap();
        ep.add(server.as_raw_fd(), 7, EPOLLIN | EPOLLRDHUP).unwrap();
        let mut events = [EpollEvent::default(); 8];
        // Nothing to read yet: a zero-timeout wait returns no events.
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);

        client.write_all(b"ping").unwrap();
        let n = ep.wait(&mut events, 1000).unwrap();
        assert_eq!(n, 1);
        let ev = events[0];
        assert_eq!({ ev.data }, 7);
        assert_ne!({ ev.events } & EPOLLIN, 0);

        let mut server = server;
        let mut buf = [0u8; 8];
        assert_eq!(server.read(&mut buf).unwrap(), 4);

        // Interest can be modified and removed.
        ep.modify(server.as_raw_fd(), 7, EPOLLIN | EPOLLOUT)
            .unwrap();
        assert!(ep.wait(&mut events, 100).unwrap() >= 1, "EPOLLOUT fires");
        ep.delete(server.as_raw_fd()).unwrap();
        assert_eq!(ep.wait(&mut events, 0).unwrap(), 0);
    }

    #[test]
    fn socket_buffers_shrink_and_nofile_raises() {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        set_socket_buffers(listener.as_raw_fd(), 1024, 1024).unwrap();
        let soft = raise_nofile_limit().unwrap();
        assert!(soft >= 1024, "soft nofile limit {soft} suspiciously low");
    }
}
