//! Recursive process creation for multi-process instantiation.
//!
//! Implements the child-side mechanics of §2.5's first instantiation
//! mode with real OS processes: a parent creates its children
//! *sequentially* (the paper's rsh semantics — concurrency comes from
//! different branches running in different processes), each child
//! connects back to its creator, receives its configuration slice in a
//! `Launch` message, and recurses. Back-end slots are advertised
//! upstream as `AttachInfo` before the node blocks waiting for
//! attachment, so rendezvous information reaches the front-end while
//! instantiation is still in flight.
//!
//! [`accept_children`] is the one reader of the `Attach` handshake,
//! in every launch mode.

use std::path::Path;
use std::process::{Child, Command, Stdio};
use std::sync::Arc;

use mrnet_obs::log_warn;
use mrnet_packet::Rank;
use mrnet_transport::{Listener, SharedConnection};

use crate::error::{MrnetError, Result};
use crate::proto::{decode_frame, Control, Frame};
use crate::slice::SubtreeView;

/// What a node must do for its direct children.
#[derive(Debug)]
pub struct ChildPlan {
    /// Internal children to create: `(rank, slice to hand over)`.
    pub spawn: Vec<Rank>,
    /// Back-end slots to advertise: `(rank, endpoint)` pairs.
    pub advertise: Vec<(Rank, String)>,
    /// Expected ranks in configuration order (for slot assignment).
    pub order: Vec<Rank>,
}

/// Plans the children of `view`'s root given this node's listener
/// address.
pub fn plan_children(view: &SubtreeView, listen_addr: &str) -> ChildPlan {
    let mut spawn = Vec::new();
    let mut advertise = Vec::new();
    let mut order = Vec::new();
    for (rank, is_backend) in view.children() {
        order.push(rank);
        if is_backend {
            advertise.push((rank, listen_addr.to_owned()));
        } else {
            spawn.push(rank);
        }
    }
    ChildPlan {
        spawn,
        advertise,
        order,
    }
}

/// Sequentially creates the internal child processes (the paper's
/// serialized per-parent launches). Each child is told where to
/// connect back and which rank it is. Returns the spawned handles so
/// the caller can reap them on shutdown.
pub fn spawn_internal_children(
    plan: &ChildPlan,
    commnode_exe: &Path,
    listen_addr: &str,
) -> Result<Vec<Child>> {
    let mut children = Vec::with_capacity(plan.spawn.len());
    for &rank in &plan.spawn {
        let child = Command::new(commnode_exe)
            .arg("--parent")
            .arg(listen_addr)
            .arg("--rank")
            .arg(rank.to_string())
            .stdin(Stdio::null())
            .spawn()
            .map_err(|e| {
                MrnetError::Instantiation(format!("failed to launch commnode for rank {rank}: {e}"))
            })?;
        children.push(child);
    }
    Ok(children)
}

/// Accepts one child for each of `ranks` on `listener`, and returns
/// their connections in the order of `ranks`. A child introduces itself
/// with `Attach { rank }` as its first frame. A connection whose first
/// frame is anything else (garbage, a data frame, another control
/// message, a rank not in `ranks` or one already attached) is logged,
/// dropped, and accepting goes on. A connection that sends nothing
/// blocks the accepting.
pub fn accept_children(listener: &dyn Listener, ranks: &[Rank]) -> Result<Vec<SharedConnection>> {
    let mut conns: Vec<Option<SharedConnection>> = vec![None; ranks.len()];
    let mut remaining = ranks.len();
    while remaining > 0 {
        let conn: SharedConnection = Arc::from(listener.accept().map_err(MrnetError::Transport)?);
        let slot = read_attach(&conn).and_then(|rank| {
            ranks
                .iter()
                .zip(&conns)
                .position(|(&r, c)| r == rank && c.is_none())
                .ok_or_else(|| MrnetError::Protocol(format!("rank {rank} is unknown or attached")))
        });
        match slot {
            Ok(slot) => {
                conns[slot] = Some(conn);
                remaining -= 1;
            }
            Err(e) => log_warn!(
                listener.addr(),
                "dropped an attach from {}: {e}",
                conn.peer()
            ),
        }
    }
    Ok(conns.into_iter().flatten().collect())
}

/// The rank a newly accepted connection's `Attach` handshake names.
fn read_attach(conn: &SharedConnection) -> Result<Rank> {
    let frame = conn.recv().map_err(MrnetError::Transport)?;
    match decode_frame(frame)? {
        Frame::Control(pkt) => match Control::from_packet(&pkt)? {
            Control::Attach { rank } => Ok(rank),
            other => Err(MrnetError::Protocol(format!(
                "expected Attach handshake, got {other:?}"
            ))),
        },
        Frame::Data(_) | Frame::Traced(..) => Err(MrnetError::Protocol(
            "data frame before Attach handshake".into(),
        )),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::slice::SubtreeSlice;
    use mrnet_topology::{generator, HostPool};

    #[test]
    fn plan_separates_spawn_and_advertise() {
        // Unbalanced: root has internal and backend children.
        let topo = generator::fig4_unbalanced(&mut HostPool::synthetic(64)).unwrap();
        let view = SubtreeSlice::of(&topo, topo.root()).view().unwrap();
        let plan = plan_children(&view, "127.0.0.1:9999");
        assert_eq!(plan.order.len(), 6); // six-way root fan-out
        assert_eq!(plan.spawn.len(), 2); // two binomial children
        assert_eq!(plan.advertise.len(), 4); // four back-ends
        for (_, ep) in &plan.advertise {
            assert_eq!(ep, "127.0.0.1:9999");
        }
        // Order covers both kinds.
        assert_eq!(plan.order.len(), plan.spawn.len() + plan.advertise.len());
    }

    #[test]
    fn accept_children_orders_and_launches() {
        use mrnet_transport::{Connection, TcpConnection, TcpTransportListener};
        // A leaf node's plan: two back-end children attach over TCP in
        // reverse order; connections come back in configuration order.
        let topo = generator::flat(2, &mut HostPool::synthetic(8)).unwrap();
        let view = SubtreeSlice::of(&topo, topo.root()).view().unwrap();
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let plan = plan_children(&view, &addr);
        assert!(plan.spawn.is_empty());
        let ranks = plan.order.clone();
        let addr2 = addr.clone();
        let attacher = std::thread::spawn(move || {
            // Attach in reverse order.
            let mut held = Vec::new();
            for &rank in ranks.iter().rev() {
                let c = TcpConnection::connect(&addr2).unwrap();
                c.send(Control::Attach { rank }.to_frame()).unwrap();
                held.push(c);
            }
            held
        });
        let conns = accept_children(&listener, &plan.order).unwrap();
        assert_eq!(conns.len(), 2);
        let _held = attacher.join().unwrap();
    }

    /// A connection naming a rank nobody awaits is closed, and the
    /// awaited child that attaches after it is accepted.
    #[test]
    fn accept_rejects_unknown_rank() {
        use mrnet_transport::{Connection, TcpConnection, TcpTransportListener};
        let topo = generator::flat(1, &mut HostPool::synthetic(8)).unwrap();
        let view = SubtreeSlice::of(&topo, topo.root()).view().unwrap();
        let listener = TcpTransportListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.addr();
        let plan = plan_children(&view, &addr);
        let rank = plan.order[0];
        let t = std::thread::spawn(move || {
            let stray = TcpConnection::connect(&addr).unwrap();
            stray
                .send(Control::Attach { rank: 999 }.to_frame())
                .unwrap();
            let child = TcpConnection::connect(&addr).unwrap();
            child.send(Control::Attach { rank }.to_frame()).unwrap();
            (stray, child)
        });
        let conns = accept_children(&listener, &plan.order).unwrap();
        let (stray, child) = t.join().unwrap();
        let timeout = std::time::Duration::from_secs(10);
        assert!(
            stray.recv_timeout(timeout).is_err(),
            "stray connection closed"
        );
        assert_eq!(conns.len(), 1);
        conns[0].send(Control::Shutdown.to_frame()).unwrap();
        let frame = child.recv_timeout(timeout).unwrap().expect("a frame");
        assert!(matches!(
            decode_frame(frame).unwrap(),
            Frame::Control(pkt) if Control::from_packet(&pkt).unwrap() == Control::Shutdown
        ));
    }
}
