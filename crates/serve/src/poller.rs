//! Zero-dependency readiness polling for the event-driven server.
//!
//! The event loop needs one primitive: "block until any of these
//! sockets is readable/writable, and tell me which". `mio` wraps this;
//! the workspace is zero-dep, so we wrap the raw OS facility ourselves,
//! calling the C symbols `std` already links (the same trick
//! `server::sigterm` uses for `signal(2)`).
//!
//! * **Linux** — `epoll` via raw syscalls. Readiness is O(ready), not
//!   O(registered): five thousand idle connections cost nothing per
//!   wakeup, which is the whole point of the event loop. Note the
//!   x86_64 ABI wart: `struct epoll_event` is `__attribute__((packed))`
//!   on that architecture only.
//! * **Other unix** — a `poll(2)` wrapper. O(registered) per wakeup,
//!   fine for moderate fan-in; the portable fallback.
//! * **Non-unix** — the event loop is not compiled at all;
//!   [`crate::server::Server::run`] reports `Unsupported`.
//!
//! Tokens are caller-chosen `u64`s carried through the kernel
//! (`epoll_event.data`) or the registration table (poll backend).

use std::io;
use std::net::{TcpListener, TcpStream};
use std::os::unix::io::{AsRawFd, RawFd};

/// One readiness report from [`Poller::wait`].
#[derive(Debug, Clone, Copy)]
pub(crate) struct Readiness {
    /// The token the fd was registered under.
    pub token: u64,
    /// Readable — includes EOF/hangup/error, which surface as a read
    /// that returns `Ok(0)` or `Err`.
    pub readable: bool,
    /// Writable (only reported when write interest was registered).
    pub writable: bool,
}

/// Interest flags for a registered fd. Read interest includes hangup.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Interest {
    pub read: bool,
    pub write: bool,
}

impl Interest {
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

/// A connected loopback socket pair used as a self-wakeup channel:
/// shard workers (and [`crate::server::ShutdownHandle`]) write a byte
/// to the first stream, the event loop polls the second. Portable —
/// no `pipe(2)` extern needed — and nonblocking on both ends so a full
/// buffer degrades to "wakeup already pending", never a stall.
pub(crate) fn wake_pair() -> io::Result<(TcpStream, TcpStream)> {
    let listener = TcpListener::bind("127.0.0.1:0")?;
    let addr = listener.local_addr()?;
    let writer = TcpStream::connect(addr)?;
    let local = writer.local_addr()?;
    // Accept until we see our own connection — a stray connect racing
    // onto the ephemeral port must not become our wakeup channel.
    for _ in 0..16 {
        let (reader, peer) = listener.accept()?;
        if peer == local {
            writer.set_nonblocking(true)?;
            writer.set_nodelay(true)?;
            reader.set_nonblocking(true)?;
            return Ok((writer, reader));
        }
        // Not ours: drop the stranger and keep accepting.
    }
    Err(io::Error::other("wake pair: could not accept own connection"))
}

/// Writes one wakeup byte, best-effort: `WouldBlock` means wakeups are
/// already pending, which is just as good.
pub(crate) fn wake(writer: &TcpStream) {
    use std::io::Write;
    let _ = (&mut { writer }).write(&[1u8]);
}

/// Drains pending wakeup bytes after the poller reported the read end
/// readable.
pub(crate) fn drain_wakeups(reader: &TcpStream) {
    use std::io::Read;
    let mut buf = [0u8; 256];
    loop {
        match (&mut { reader }).read(&mut buf) {
            Ok(0) => return,
            Ok(_) => {}
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(_) => return,
        }
    }
}

#[cfg(target_os = "linux")]
mod imp {
    use super::{Interest, Readiness};
    use std::io;
    use std::os::unix::io::RawFd;

    // `epoll_event` is packed on x86_64 (12 bytes) and naturally
    // aligned (16 bytes) everywhere else; getting this wrong corrupts
    // the token of every second event.
    #[cfg_attr(target_arch = "x86_64", repr(C, packed))]
    #[cfg_attr(not(target_arch = "x86_64"), repr(C))]
    #[derive(Clone, Copy)]
    struct EpollEvent {
        events: u32,
        data: u64,
    }

    extern "C" {
        fn epoll_create1(flags: i32) -> i32;
        fn epoll_ctl(epfd: i32, op: i32, fd: i32, event: *mut EpollEvent) -> i32;
        fn epoll_wait(epfd: i32, events: *mut EpollEvent, maxevents: i32, timeout: i32) -> i32;
        fn close(fd: i32) -> i32;
    }

    const EPOLL_CLOEXEC: i32 = 0x8_0000;
    const EPOLL_CTL_ADD: i32 = 1;
    const EPOLL_CTL_DEL: i32 = 2;
    const EPOLL_CTL_MOD: i32 = 3;
    const EPOLLIN: u32 = 0x001;
    const EPOLLOUT: u32 = 0x004;
    const EPOLLERR: u32 = 0x008;
    const EPOLLHUP: u32 = 0x010;
    const EPOLLRDHUP: u32 = 0x2000;

    /// The Linux readiness facility: registrations live in the kernel,
    /// [`Poller::wait`] returns only ready fds.
    pub(crate) struct Poller {
        epfd: RawFd,
        buf: Vec<EpollEvent>,
    }

    fn mask(interest: Interest) -> u32 {
        let mut m = EPOLLRDHUP;
        if interest.read {
            m |= EPOLLIN;
        }
        if interest.write {
            m |= EPOLLOUT;
        }
        m
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            // SAFETY: plain syscall, no pointers.
            let epfd = unsafe { epoll_create1(EPOLL_CLOEXEC) };
            if epfd < 0 {
                return Err(io::Error::last_os_error());
            }
            Ok(Poller {
                epfd,
                buf: vec![EpollEvent { events: 0, data: 0 }; 1024],
            })
        }

        fn ctl(&self, op: i32, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            let mut ev = EpollEvent {
                events: mask(interest),
                data: token,
            };
            // SAFETY: `ev` outlives the call; the kernel copies it.
            let rc = unsafe { epoll_ctl(self.epfd, op, fd, &mut ev) };
            if rc < 0 {
                Err(io::Error::last_os_error())
            } else {
                Ok(())
            }
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_ADD, fd, token, interest)
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.ctl(EPOLL_CTL_MOD, fd, token, interest)
        }

        pub fn remove(&mut self, fd: RawFd) {
            // The fd may already be closed (kernel auto-deregisters);
            // failure here is not actionable.
            let _ = self.ctl(EPOLL_CTL_DEL, fd, 0, Interest::READ);
        }

        /// Blocks up to `timeout_ms` and appends one [`Readiness`] per
        /// ready fd to `out` (cleared first). A signal landing mid-wait
        /// (`EINTR`) reports zero events so the caller can re-check its
        /// drain/SIGTERM flags.
        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            // SAFETY: `buf` is owned, sized, and outlives the call.
            let n = unsafe {
                epoll_wait(
                    self.epfd,
                    self.buf.as_mut_ptr(),
                    self.buf.len() as i32,
                    timeout_ms,
                )
            };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for i in 0..n as usize {
                // Copy out of the (possibly packed) struct before use.
                let ev = self.buf[i];
                let events = { ev.events };
                let data = { ev.data };
                out.push(Readiness {
                    token: data,
                    readable: events & (EPOLLIN | EPOLLERR | EPOLLHUP | EPOLLRDHUP) != 0,
                    writable: events & (EPOLLOUT | EPOLLERR | EPOLLHUP) != 0,
                });
            }
            if n as usize == self.buf.len() {
                // Saturated the event buffer: grow so a huge ready set
                // cannot starve the tail across iterations.
                let len = self.buf.len() * 2;
                self.buf.resize(len, EpollEvent { events: 0, data: 0 });
            }
            Ok(())
        }
    }

    impl Drop for Poller {
        fn drop(&mut self) {
            // SAFETY: closing our own epoll fd exactly once.
            unsafe {
                close(self.epfd);
            }
        }
    }
}

#[cfg(all(unix, not(target_os = "linux")))]
mod imp {
    use super::{Interest, Readiness};
    use std::collections::HashMap;
    use std::io;
    use std::os::unix::io::RawFd;

    #[repr(C)]
    #[derive(Clone, Copy)]
    struct PollFd {
        fd: i32,
        events: i16,
        revents: i16,
    }

    extern "C" {
        // `nfds_t` is platform-dependent (u32 on some BSDs); passing a
        // u64 is benign for the registration counts this server sees —
        // the low word carries the value on every supported ABI.
        fn poll(fds: *mut PollFd, nfds: u64, timeout: i32) -> i32;
    }

    const POLLIN: i16 = 0x001;
    const POLLOUT: i16 = 0x004;
    const POLLERR: i16 = 0x008;
    const POLLHUP: i16 = 0x010;

    /// Portable `poll(2)` fallback: registrations live in user space
    /// and every wait scans the full set — O(registered) per wakeup.
    pub(crate) struct Poller {
        registered: HashMap<RawFd, (u64, Interest)>,
        fds: Vec<PollFd>,
    }

    impl Poller {
        pub fn new() -> io::Result<Poller> {
            Ok(Poller {
                registered: HashMap::new(),
                fds: Vec::new(),
            })
        }

        pub fn add(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn modify(&mut self, fd: RawFd, token: u64, interest: Interest) -> io::Result<()> {
            self.registered.insert(fd, (token, interest));
            Ok(())
        }

        pub fn remove(&mut self, fd: RawFd) {
            self.registered.remove(&fd);
        }

        pub fn wait(&mut self, timeout_ms: i32, out: &mut Vec<Readiness>) -> io::Result<()> {
            out.clear();
            self.fds.clear();
            let mut tokens = Vec::with_capacity(self.registered.len());
            for (&fd, &(token, interest)) in &self.registered {
                let mut events = 0i16;
                if interest.read {
                    events |= POLLIN;
                }
                if interest.write {
                    events |= POLLOUT;
                }
                self.fds.push(PollFd {
                    fd,
                    events,
                    revents: 0,
                });
                tokens.push(token);
            }
            // SAFETY: `fds` is owned, contiguous, and outlives the call.
            let n = unsafe { poll(self.fds.as_mut_ptr(), self.fds.len() as u64, timeout_ms) };
            if n < 0 {
                let e = io::Error::last_os_error();
                if e.kind() == io::ErrorKind::Interrupted {
                    return Ok(());
                }
                return Err(e);
            }
            for (pfd, &token) in self.fds.iter().zip(&tokens) {
                let r = pfd.revents;
                if r == 0 {
                    continue;
                }
                out.push(Readiness {
                    token,
                    readable: r & (POLLIN | POLLERR | POLLHUP) != 0,
                    writable: r & (POLLOUT | POLLERR | POLLHUP) != 0,
                });
            }
            Ok(())
        }
    }
}

pub(crate) use imp::Poller;

/// Raw-fd accessor shared by the event loop.
pub(crate) fn fd_of<T: AsRawFd>(t: &T) -> RawFd {
    t.as_raw_fd()
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::{Read, Write};

    #[test]
    fn wake_pair_round_trips() {
        let (w, r) = wake_pair().unwrap();
        wake(&w);
        // Wakeups are asynchronous over loopback; poll for arrival.
        let mut poller = Poller::new().unwrap();
        poller.add(fd_of(&r), 7, Interest::READ).unwrap();
        let mut events = Vec::new();
        for _ in 0..100 {
            poller.wait(50, &mut events).unwrap();
            if !events.is_empty() {
                break;
            }
        }
        assert_eq!(events.len(), 1);
        assert_eq!(events[0].token, 7);
        assert!(events[0].readable);
        drain_wakeups(&r);
        // Drained: the next wait times out with no events.
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty());
    }

    #[test]
    fn write_interest_reports_writable() {
        let (w, r) = wake_pair().unwrap();
        let mut poller = Poller::new().unwrap();
        poller
            .add(fd_of(&w), 1, Interest { read: true, write: true })
            .unwrap();
        let mut events = Vec::new();
        poller.wait(100, &mut events).unwrap();
        assert!(events.iter().any(|e| e.token == 1 && e.writable));
        // Dropping write interest silences the (always-writable) socket.
        poller.modify(fd_of(&w), 1, Interest::READ).unwrap();
        poller.wait(0, &mut events).unwrap();
        assert!(events.is_empty(), "{events:?}");
        drop(r);
        // Peer hangup surfaces as readable (read returns Ok(0)).
        let mut seen = false;
        for _ in 0..100 {
            poller.wait(50, &mut events).unwrap();
            if events.iter().any(|e| e.token == 1 && e.readable) {
                seen = true;
                break;
            }
        }
        assert!(seen, "hangup never reported");
        let mut s = w;
        let mut buf = [0u8; 8];
        assert_eq!(s.read(&mut buf).unwrap(), 0, "EOF expected");
        let _ = s.write(&[0]);
    }
}
