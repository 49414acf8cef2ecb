//! Blocking client for the networked broker: one outstanding request at a
//! time, typed errors, and reconnects and shed-retries that back off by
//! the workspace's capped-jittered [`RetryPolicy`].
//!
//! The client also exposes the raw-byte hooks the network chaos harness
//! uses to misbehave on purpose ([`NetClient::inject_raw`],
//! [`NetClient::shutdown_abrupt`]); they are ordinary public API because a
//! protocol whose robustness matters should be trivially attackable from
//! its own test tooling.

use super::proto::{encode, Decoder, Frame, ProtocolError, RejectReason};
use rsin_des::RetryPolicy;
use std::fmt;
use std::io::{self, Read, Write};
use std::net::{Shutdown, SocketAddr, TcpStream};
use std::time::Duration;

/// A grant held over the wire; release it with [`NetClient::release`].
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetGrant {
    /// Correlation id of the request that won it.
    pub req_id: u32,
    /// Granted resource index (global across shards).
    pub resource: u32,
    /// Lease generation to echo in the release.
    pub generation: u32,
}

/// Everything that can go wrong on the client side of the wire.
#[derive(Debug)]
pub enum NetError {
    /// Transport failure (includes read timeouts).
    Io(io::Error),
    /// The server's byte stream was unframeable.
    Protocol(ProtocolError),
    /// The server refused the request, typed.
    Rejected(RejectReason),
    /// The server closed the connection.
    Disconnected,
}

impl fmt::Display for NetError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            NetError::Io(e) => write!(f, "transport error: {e}"),
            NetError::Protocol(e) => write!(f, "protocol error: {e}"),
            NetError::Rejected(r) => write!(f, "request rejected: {r:?}"),
            NetError::Disconnected => write!(f, "server closed the connection"),
        }
    }
}

impl std::error::Error for NetError {}

impl From<io::Error> for NetError {
    fn from(e: io::Error) -> Self {
        NetError::Io(e)
    }
}

impl NetError {
    /// Whether the error is a typed shed rejection (worth retrying after
    /// backoff, per the admission-control contract).
    #[must_use]
    pub fn is_shed(&self) -> bool {
        matches!(self, NetError::Rejected(RejectReason::Shed))
    }
}

/// A blocking connection to a [`NetServer`](super::NetServer).
///
/// One outstanding request at a time: [`NetClient::acquire`] sends a
/// `Request` and reads until its reply arrives; [`NetClient::release`]
/// returns the grant. The server tolerates pipelining, but this client
/// deliberately matches the in-process worker model — one grant per
/// remote worker (paper assumption (f)).
#[derive(Debug)]
pub struct NetClient {
    stream: TcpStream,
    dec: Decoder,
    tenant: u8,
    next_req: u32,
    out: Vec<u8>,
}

impl NetClient {
    /// Connects once, blocking, as tenant class `tenant`.
    pub fn connect(addr: SocketAddr, tenant: u8) -> io::Result<Self> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        Ok(NetClient {
            stream,
            dec: Decoder::new(),
            tenant,
            next_req: 1,
            out: Vec::with_capacity(64),
        })
    }

    /// Connects with capped-jittered exponential backoff between attempts
    /// (`policy.max_retries` re-attempts after the first). Returns the
    /// last error if every attempt fails.
    pub fn connect_retry(addr: SocketAddr, tenant: u8, policy: &RetryPolicy) -> io::Result<Self> {
        let mut attempt = 0u32;
        loop {
            match Self::connect(addr, tenant) {
                Ok(c) => return Ok(c),
                Err(e) if attempt >= policy.max_retries => return Err(e),
                Err(_) => {
                    attempt += 1;
                    std::thread::sleep(policy.delay_before(attempt));
                }
            }
        }
    }

    /// The tenant class this client requests as.
    #[must_use]
    pub fn tenant(&self) -> u8 {
        self.tenant
    }

    /// Caps how long a blocking read waits for the server; `None` blocks
    /// forever. [`NetClient::acquire`] manages this itself when given a
    /// deadline.
    pub fn set_read_timeout(&mut self, timeout: Option<Duration>) -> io::Result<()> {
        self.stream.set_read_timeout(timeout)
    }

    fn send(&mut self, frame: &Frame) -> Result<(), NetError> {
        self.out.clear();
        encode(frame, &mut self.out);
        self.stream.write_all(&self.out)?;
        Ok(())
    }

    fn read_frame(&mut self) -> Result<Frame, NetError> {
        let mut scratch = [0u8; 512];
        loop {
            match self.dec.next_frame() {
                Ok(Some(f)) => return Ok(f),
                Ok(None) => {}
                Err(e) => return Err(NetError::Protocol(e)),
            }
            match self.stream.read(&mut scratch) {
                Ok(0) => return Err(NetError::Disconnected),
                Ok(n) => self.dec.feed(&scratch[..n]),
                Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
                Err(e) => return Err(NetError::Io(e)),
            }
        }
    }

    /// Requests one resource, waiting up to `deadline` for the grant.
    ///
    /// The deadline travels in the request itself, so the *server* sheds
    /// the work when it expires (a typed `Expired` rejection comes back);
    /// the client additionally arms a read timeout slightly past the
    /// deadline so a dead server cannot hang it. `None` means no deadline
    /// on either side.
    pub fn acquire(&mut self, deadline: Option<Duration>) -> Result<NetGrant, NetError> {
        let req_id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        let deadline_us = deadline
            .map(|d| u32::try_from(d.as_micros()).unwrap_or(u32::MAX))
            .unwrap_or(0);
        self.stream
            .set_read_timeout(deadline.map(|d| d + Duration::from_secs(2)))?;
        self.send(&Frame::Request {
            req_id,
            tenant: self.tenant,
            deadline_us,
        })?;
        loop {
            match self.read_frame()? {
                Frame::Grant {
                    req_id: id,
                    resource,
                    generation,
                } if id == req_id => {
                    return Ok(NetGrant {
                        req_id,
                        resource,
                        generation,
                    })
                }
                Frame::Reject { req_id: id, reason } if id == req_id => {
                    return Err(NetError::Rejected(reason))
                }
                // Replies to earlier requests (e.g. a Released that raced
                // a previous timeout) are drained and ignored.
                _ => {}
            }
        }
    }

    /// [`NetClient::acquire`] with shed-retry: a `Shed` rejection backs
    /// off per `policy` and tries again, up to `policy.max_retries`
    /// re-attempts. Other errors return immediately.
    pub fn acquire_retry(
        &mut self,
        deadline: Option<Duration>,
        policy: &RetryPolicy,
    ) -> Result<NetGrant, NetError> {
        let mut attempt = 0u32;
        loop {
            match self.acquire(deadline) {
                Err(e) if e.is_shed() && attempt < policy.max_retries => {
                    attempt += 1;
                    std::thread::sleep(policy.delay_before(attempt));
                }
                other => return other,
            }
        }
    }

    /// Releases a grant; `Ok(true)` means it was still live, `Ok(false)`
    /// that the lease had already been reclaimed (harmlessly stale).
    pub fn release(&mut self, grant: NetGrant) -> Result<bool, NetError> {
        let req_id = self.next_req;
        self.next_req = self.next_req.wrapping_add(1).max(1);
        self.stream.set_read_timeout(Some(Duration::from_secs(5)))?;
        self.send(&Frame::Release {
            req_id,
            resource: grant.resource,
            generation: grant.generation,
        })?;
        loop {
            match self.read_frame()? {
                Frame::Released { req_id: id, live } if id == req_id => return Ok(live),
                _ => {}
            }
        }
    }

    /// Chaos hook: writes arbitrary bytes into the stream (truncated
    /// frames, garbage). The connection is almost certainly unframeable
    /// afterwards — that is the point.
    pub fn inject_raw(&mut self, bytes: &[u8]) -> io::Result<()> {
        self.stream.write_all(bytes)
    }

    /// Chaos hook: slams the connection shut without releasing anything,
    /// simulating a client death mid-protocol. Consumes the client.
    pub fn shutdown_abrupt(self) {
        let _ = self.stream.shutdown(Shutdown::Both);
    }
}
