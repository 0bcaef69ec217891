//! The reusable `mrnet_commnode` implementation.
//!
//! The binary in `src/bin/mrnet_commnode.rs` wraps [`run`] with the
//! built-in filter registry; tools that deploy custom filters build
//! their own commnode binary wrapping [`run`] with an extended
//! registry — the process-mode analogue of installing a filter shared
//! object on every host (§2.4).

use std::sync::Arc;

use mrnet_filters::FilterRegistry;
use mrnet_transport::{Listener, RetryPolicy, SharedConnection, TcpTransportListener};

use crate::instantiate::{bring_up, NodeStart};
use crate::internal::process::{Link, Upstream};
use crate::procspawn::{plan_children, spawn_internal_children};
use crate::proto::{decode_frame, Control, Frame};
use crate::slice::SubtreeSlice;

/// Parses `--parent HOST:PORT --rank N` style arguments.
pub fn parse_args(args: impl Iterator<Item = String>) -> Result<(String, u32), String> {
    let mut parent = None;
    let mut rank = None;
    let mut args = args;
    while let Some(flag) = args.next() {
        match flag.as_str() {
            "--parent" => parent = args.next(),
            "--rank" => rank = args.next(),
            other => return Err(format!("unknown flag `{other}`")),
        }
    }
    let parent = parent.ok_or("missing --parent HOST:PORT")?;
    let rank = rank
        .ok_or("missing --rank N")?
        .parse::<u32>()
        .map_err(|e| format!("bad rank: {e}"))?;
    Ok((parent, rank))
}

/// Runs one internal process to completion: connect to the parent,
/// receive the configuration slice, instantiate the subtree (spawning
/// `commnode_exe` for internal children), then run the event loop
/// until shutdown.
pub fn run(
    parent_addr: &str,
    rank: u32,
    registry: FilterRegistry,
    commnode_exe: &std::path::Path,
) -> Result<(), String> {
    // The connect-back race (§2.5): the parent may not be accepting
    // yet when this child starts dialing; retry with backoff per
    // `MRNET_CONNECT_RETRIES` before declaring the parent unreachable.
    let (conn, retries) = RetryPolicy::from_env()
        .connect(parent_addr)
        .map_err(|e| format!("cannot reach parent {parent_addr}: {e}"))?;
    let parent: SharedConnection = Arc::new(conn);
    parent
        .send(Control::Attach { rank }.to_frame())
        .map_err(|e| format!("attach handshake failed: {e}"))?;

    let frame = parent
        .recv()
        .map_err(|e| format!("no Launch message: {e}"))?;
    let view = match decode_frame(frame).map_err(|e| e.to_string())? {
        Frame::Control(pkt) => match Control::from_packet(&pkt).map_err(|e| e.to_string())? {
            Control::Launch { ranks, parents } => {
                SubtreeSlice::from_wire(ranks, parents).map_err(|e| e.to_string())?
            }
            other => return Err(format!("expected Launch, got {other:?}")),
        },
        Frame::Data(_) | Frame::Traced(..) => return Err("data frame before Launch".into()),
    };
    if view.my_rank() != rank {
        return Err(format!(
            "launched as rank {rank} but slice is rooted at {}",
            view.my_rank()
        ));
    }

    let listener = TcpTransportListener::bind("127.0.0.1:0").map_err(|e| e.to_string())?;
    let plan = plan_children(&view, &listener.addr());
    let mut spawned = spawn_internal_children(&plan, commnode_exe, &listener.addr())
        .map_err(|e| e.to_string())?;
    if !plan.advertise.is_empty() {
        let (ranks, endpoints): (Vec<_>, Vec<_>) = plan.advertise.iter().cloned().unzip();
        parent
            .send(Control::AttachInfo { ranks, endpoints }.to_frame())
            .map_err(|e| format!("cannot advertise attach points: {e}"))?;
    }
    let up = Upstream::Parent(Link::new(parent));
    let start = NodeStart::new(rank, registry, up).attached(listener, view);
    start.metrics().connect_retries.add(u64::from(retries));
    bring_up(start).map_err(|e| format!("bring-up failed: {e}"))?;

    for child in &mut spawned {
        let _ = child.wait();
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> impl Iterator<Item = String> + '_ {
        s.split_whitespace().map(str::to_owned)
    }

    #[test]
    fn parses_valid_args() {
        let (parent, rank) = parse_args(argv("--parent 10.0.0.1:5000 --rank 12")).unwrap();
        assert_eq!(parent, "10.0.0.1:5000");
        assert_eq!(rank, 12);
        // Order-independent.
        let (parent, rank) = parse_args(argv("--rank 3 --parent h:1")).unwrap();
        assert_eq!(parent, "h:1");
        assert_eq!(rank, 3);
    }

    #[test]
    fn rejects_bad_args() {
        assert!(parse_args(argv("--parent h:1")).is_err());
        assert!(parse_args(argv("--rank 4")).is_err());
        assert!(parse_args(argv("--rank nope --parent h:1")).is_err());
        assert!(parse_args(argv("--bogus x")).is_err());
    }

    #[test]
    fn wrong_first_message_errors() {
        use crate::proto::Control;
        use mrnet_transport::{Listener, TcpTransportListener};
        // A fake parent that sends Shutdown instead of Launch.
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let child = std::thread::spawn(move || {
            run(
                &addr,
                4,
                FilterRegistry::with_builtins(),
                std::path::Path::new("/bin/true"),
            )
        });
        let conn = listener.accept().unwrap();
        let _attach = conn.recv().unwrap();
        conn.send(Control::Shutdown.to_frame()).unwrap();
        let err = child.join().unwrap().expect_err("must fail");
        assert!(err.contains("expected Launch"), "{err}");
    }

    #[test]
    fn rank_mismatch_errors() {
        use crate::proto::Control;
        use mrnet_transport::{Listener, TcpTransportListener};
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let child = std::thread::spawn(move || {
            run(
                &addr,
                4,
                FilterRegistry::with_builtins(),
                std::path::Path::new("/bin/true"),
            )
        });
        let conn = listener.accept().unwrap();
        let _attach = conn.recv().unwrap();
        // Slice rooted at a different rank.
        conn.send(
            Control::Launch {
                ranks: vec![9, 10],
                parents: vec![u32::MAX, 0],
            }
            .to_frame(),
        )
        .unwrap();
        let err = child.join().unwrap().expect_err("must fail");
        assert!(err.contains("rooted at 9"), "{err}");
    }

    #[test]
    fn unreachable_parent_errors() {
        let err = run(
            "127.0.0.1:1", // almost certainly nothing listening
            5,
            FilterRegistry::with_builtins(),
            std::path::Path::new("/bin/true"),
        )
        .expect_err("must fail");
        assert!(err.contains("cannot reach parent"));
    }
}
