//! The wire alphabet.
//!
//! Each wire carries one constant-size character per tick. The protocol
//! multiplexes several *construct channels* onto a wire — the paper's
//! convention that "snakes of different types do not interact. A processor
//! can handle different snake types simultaneously … because snake types
//! are distinguished by their alphabets" (§2.3.1). Formally the wire
//! alphabet is the product of finitely many constant alphabets, which is
//! still a constant alphabet; [`Signal`] is that product type. The blank
//! character *b* of the quiescent state is `Signal::default()`.
//!
//! # Packed layout
//!
//! A [`Signal`] is 16 bytes: six `u16` snake slots (one per
//! [`SnakeKind`], indexed by [`SnakeKind::idx`]) and one `u32` token
//! word. Every channel encodes "absent" as zero, so the blank character
//! is all-zero bits and `==` is a plain 16-byte compare. Ports fit
//! because δ ≤ [`gtd_netsim::MAX_DELTA`] = 64: an out-port takes 6 bits,
//! an in-port or `∗` takes 7.
//!
//! Snake slot (15 of 16 bits used):
//!
//! | bits   | field                                        |
//! |--------|----------------------------------------------|
//! | 0..2   | role: 0 empty, 1 head, 2 body, 3 tail        |
//! | 2..8   | hop out-port                                 |
//! | 8..15  | hop in-port + 1 (0 = `∗`)                    |
//!
//! Token word (25 of 32 bits used):
//!
//! | bits   | field                                                 |
//! |--------|-------------------------------------------------------|
//! | 0      | KILL                                                  |
//! | 1      | UNMARK                                                |
//! | 2, 3   | RESET present, RESET parity                           |
//! | 4..6   | loop token: 0 none, 1 FORWARD, 2 BACK, 3 BCA payload  |
//! | 6..12  | FORWARD out-port                                      |
//! | 12..18 | FORWARD in-port                                       |
//! | 18..25 | DFS sender out-port + 1 (0 = no DFS token)            |

use crate::chars::{Hop, SnakeChar, SnakeKind};
use gtd_netsim::Port;

/// Constant-size message a BCA delivers backwards along an edge.
///
/// In the GTD protocol the only backwards cargo is the DFS token itself;
/// the enum leaves room for other protocols built on the same BCA.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum BcaMsg {
    /// "Here is the DFS token back" (§3: backtrack or bounce).
    DfsReturn,
}

/// A token travelling around a marked loop (speed-1).
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum LoopToken {
    /// RCA payload: the DFS moved forward through out-port `out_port` of
    /// the previous holder into in-port `in_port` of the sender (§3).
    /// δ² variants, exactly as the paper counts them.
    Forward { out_port: Port, in_port: Port },
    /// RCA payload: the DFS token moved backwards (§3).
    Back,
    /// BCA payload delivered to the loop's endpoint processor.
    Bca(BcaMsg),
}

/// The DFS token moving *forward* along a wire (§3). It "remembers …
/// through which out-port it has been most recently passed"; the receiving
/// processor supplies the in-port itself.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct DfsToken {
    /// The out-port the sender pushed the token through.
    pub sender_out_port: Port,
}

const ROLE_HEAD: u16 = 1;
const ROLE_BODY: u16 = 2;
const ROLE_TAIL: u16 = 3;
const ROLE_MASK: u16 = 3;

const KILL: u32 = 1 << 0;
const UNMARK: u32 = 1 << 1;
const RESET: u32 = 1 << 2;
const RESET_PARITY: u32 = 1 << 3;
const LOOP_SHIFT: u32 = 4;
const LOOP_FORWARD: u32 = 1;
const LOOP_BACK: u32 = 2;
const LOOP_BCA: u32 = 3;
const LOOP_MASK: u32 = 0x3fff << LOOP_SHIFT;
const DFS_SHIFT: u32 = 18;
const DFS_MASK: u32 = 0x7f << DFS_SHIFT;

/// Is `p` a legal port (below [`gtd_netsim::MAX_DELTA`])?
#[inline]
fn port_fits(p: Port) -> bool {
    p.0 < 64
}

#[inline]
fn encode_char(c: SnakeChar) -> u16 {
    let (role, hop) = match c {
        SnakeChar::Head(h) => (ROLE_HEAD, h),
        SnakeChar::Body(h) => (ROLE_BODY, h),
        SnakeChar::Tail => return ROLE_TAIL,
    };
    assert!(
        port_fits(hop.out_port) && hop.in_port.is_none_or(port_fits),
        "snake hop port out of range: {hop:?}"
    );
    let in_code = hop.in_port.map_or(0, |p| u16::from(p.0) + 1);
    role | u16::from(hop.out_port.0) << 2 | in_code << 8
}

#[inline]
fn decode_char(v: u16) -> Option<SnakeChar> {
    let hop = || Hop {
        out_port: Port((v >> 2 & 0x3f) as u8),
        in_port: match v >> 8 {
            0 => None,
            j => Some(Port(j as u8 - 1)),
        },
    };
    match v & ROLE_MASK {
        0 => None,
        ROLE_HEAD => Some(SnakeChar::Head(hop())),
        ROLE_BODY => Some(SnakeChar::Body(hop())),
        _ => Some(SnakeChar::Tail),
    }
}

/// Everything that can cross one wire in one tick: at most one character
/// per snake kind, plus the token channels — packed into 16 bytes (see
/// the module docs for the layout).
///
/// The token channels are:
/// * KILL — speed-3 breadth-first KILL token (RCA step 4);
/// * UNMARK — speed-3 UNMARK loop token (RCA step 5);
/// * RESET — speed-3 flood that clears DFS bookkeeping so the root can
///   re-map a (possibly changed) network, our dynamic-remapping
///   extension. It carries the new round's parity bit so late-arriving
///   flood copies cannot re-clear a processor the new DFS already
///   visited;
/// * the speed-1 loop token (FORWARD / BACK / BCA payload);
/// * the DFS token moving forward through this wire.
#[derive(Clone, Copy, PartialEq, Eq, Default)]
pub struct Signal {
    /// One encoded character per snake kind, indexed by [`SnakeKind::idx`].
    snakes: [u16; 6],
    /// KILL, UNMARK, RESET, loop-token and DFS channels.
    tok: u32,
}

impl Signal {
    /// The blank character *b*.
    #[inline]
    pub fn blank() -> Self {
        Signal::default()
    }

    /// Is this the blank character?
    #[inline]
    pub fn is_blank(&self) -> bool {
        *self == Signal::default()
    }

    /// The snake character of `kind` on this wire, if any.
    #[inline]
    pub fn snake(&self, kind: SnakeKind) -> Option<SnakeChar> {
        decode_char(self.snakes[kind.idx()])
    }

    /// Place a snake character of `kind` on this wire. Panics if the slot
    /// is already occupied — the protocol guarantees one character per kind
    /// per wire per tick, and a collision means a relay bug.
    #[inline]
    pub fn put_snake(&mut self, kind: SnakeKind, c: SnakeChar) {
        let slot = &mut self.snakes[kind.idx()];
        assert!(
            *slot == 0,
            "snake channel collision: two {kind} characters on one wire in one tick"
        );
        *slot = encode_char(c);
    }

    /// Is a KILL token on this wire?
    #[inline]
    pub fn kill(&self) -> bool {
        self.tok & KILL != 0
    }

    /// Put a KILL token on this wire (idempotent).
    #[inline]
    pub fn set_kill(&mut self) {
        self.tok |= KILL;
    }

    /// Is an UNMARK token on this wire?
    #[inline]
    pub fn unmark(&self) -> bool {
        self.tok & UNMARK != 0
    }

    /// Put an UNMARK token on this wire (idempotent).
    #[inline]
    pub fn set_unmark(&mut self) {
        self.tok |= UNMARK;
    }

    /// The RESET flood's round parity, if a RESET is on this wire.
    #[inline]
    pub fn reset(&self) -> Option<bool> {
        (self.tok & RESET != 0).then_some(self.tok & RESET_PARITY != 0)
    }

    /// Put a RESET carrying round parity `parity` on this wire, replacing
    /// any RESET already there.
    #[inline]
    pub fn set_reset(&mut self, parity: bool) {
        let bits = if parity { RESET | RESET_PARITY } else { RESET };
        self.tok = self.tok & !(RESET | RESET_PARITY) | bits;
    }

    /// The loop token on this wire, if any.
    #[inline]
    pub fn loop_tok(&self) -> Option<LoopToken> {
        let w = (self.tok & LOOP_MASK) >> LOOP_SHIFT;
        match w & 3 {
            0 => None,
            LOOP_FORWARD => Some(LoopToken::Forward {
                out_port: Port((w >> 2 & 0x3f) as u8),
                in_port: Port((w >> 8 & 0x3f) as u8),
            }),
            LOOP_BACK => Some(LoopToken::Back),
            _ => Some(LoopToken::Bca(BcaMsg::DfsReturn)),
        }
    }

    /// Place a loop token; panics on collision (at most one loop construct
    /// exists per RCA/BCA phase).
    #[inline]
    pub fn put_loop(&mut self, t: LoopToken) {
        assert!(self.tok & LOOP_MASK == 0, "loop-token channel collision");
        let w = match t {
            LoopToken::Forward { out_port, in_port } => {
                assert!(
                    port_fits(out_port) && port_fits(in_port),
                    "loop token port out of range: {t:?}"
                );
                LOOP_FORWARD | u32::from(out_port.0) << 2 | u32::from(in_port.0) << 8
            }
            LoopToken::Back => LOOP_BACK,
            LoopToken::Bca(BcaMsg::DfsReturn) => LOOP_BCA,
        };
        self.tok |= w << LOOP_SHIFT;
    }

    /// The DFS token on this wire, if any.
    #[inline]
    pub fn dfs(&self) -> Option<DfsToken> {
        match (self.tok & DFS_MASK) >> DFS_SHIFT {
            0 => None,
            p => Some(DfsToken {
                sender_out_port: Port(p as u8 - 1),
            }),
        }
    }

    /// Place the DFS token; panics on collision (there is exactly one DFS
    /// token in the network).
    #[inline]
    pub fn put_dfs(&mut self, t: DfsToken) {
        assert!(self.tok & DFS_MASK == 0, "dfs channel collision");
        assert!(
            port_fits(t.sender_out_port),
            "dfs token port out of range: {t:?}"
        );
        self.tok |= (u32::from(t.sender_out_port.0) + 1) << DFS_SHIFT;
    }

    /// Number of non-empty construct channels (diagnostics / E5 census).
    pub fn occupancy(&self) -> usize {
        self.snakes.iter().filter(|&&c| c != 0).count()
            + usize::from(self.kill())
            + usize::from(self.unmark())
            + usize::from(self.tok & RESET != 0)
            + usize::from(self.tok & LOOP_MASK != 0)
            + usize::from(self.tok & DFS_MASK != 0)
    }
}

impl std::fmt::Debug for Signal {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        if self.is_blank() {
            return f.write_str("Signal(blank)");
        }
        let mut d = f.debug_struct("Signal");
        for kind in SnakeKind::ALL {
            if let Some(c) = self.snake(kind) {
                d.field(kind.name(), &c);
            }
        }
        if self.kill() {
            d.field("kill", &true);
        }
        if self.unmark() {
            d.field("unmark", &true);
        }
        if let Some(parity) = self.reset() {
            d.field("reset", &parity);
        }
        if let Some(t) = self.loop_tok() {
            d.field("loop_tok", &t);
        }
        if let Some(t) = self.dfs() {
            d.field("dfs", &t);
        }
        d.finish()
    }
}

/// The construct channels occupied on at least one wire of a port slice:
/// the bitwise OR of the packed words. A processor reads it once per step
/// to skip every input phase whose channel is absent on all its in-ports.
#[derive(Clone, Copy, Default)]
pub struct Channels(Signal);

impl Channels {
    /// The union over `sigs`.
    #[inline]
    pub fn of(sigs: &[Signal]) -> Self {
        let mut u = Signal::default();
        for s in sigs {
            for (a, b) in u.snakes.iter_mut().zip(s.snakes) {
                *a |= b;
            }
            u.tok |= s.tok;
        }
        Channels(u)
    }

    /// Is a snake character of any of `kinds` on some wire?
    #[inline]
    pub fn any_snake(&self, kinds: &[SnakeKind]) -> bool {
        kinds.iter().any(|k| self.0.snakes[k.idx()] != 0)
    }

    /// `sig`'s character of `kind`, decoded only when `kind` is on some
    /// wire of the union — an absent kind costs no decode.
    #[inline]
    pub fn snake_in(&self, sig: Signal, kind: SnakeKind) -> Option<SnakeChar> {
        if self.0.snakes[kind.idx()] != 0 {
            sig.snake(kind)
        } else {
            None
        }
    }

    /// Is a KILL token on some wire?
    #[inline]
    pub fn kill(&self) -> bool {
        self.0.kill()
    }

    /// Is an UNMARK token on some wire?
    #[inline]
    pub fn unmark(&self) -> bool {
        self.0.unmark()
    }

    /// Is a RESET on some wire?
    #[inline]
    pub fn reset(&self) -> bool {
        self.0.tok & RESET != 0
    }

    /// Is a loop token on some wire?
    #[inline]
    pub fn loop_tok(&self) -> bool {
        self.0.tok & LOOP_MASK != 0
    }

    /// Is the DFS token on some wire?
    #[inline]
    pub fn dfs(&self) -> bool {
        self.0.tok & DFS_MASK != 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::chars::enumerate_alphabet;

    #[test]
    fn blank_is_default_and_empty() {
        let b = Signal::blank();
        assert!(b.is_blank());
        assert_eq!(b.occupancy(), 0);
        for k in SnakeKind::ALL {
            assert_eq!(b.snake(k), None);
        }
        assert!(!b.kill() && !b.unmark());
        assert_eq!((b.reset(), b.loop_tok(), b.dfs()), (None, None, None));
        assert_eq!(format!("{b:?}"), "Signal(blank)");
    }

    #[test]
    fn channels_are_independent() {
        let mut s = Signal::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Og, SnakeChar::Head(Hop::star(Port(0))));
        s.set_kill();
        s.put_loop(LoopToken::Back);
        assert!(!s.is_blank());
        assert_eq!(s.occupancy(), 4);
        assert_eq!(s.snake(SnakeKind::Ig), Some(SnakeChar::Tail));
        assert_eq!(
            s.snake(SnakeKind::Og),
            Some(SnakeChar::Head(Hop::star(Port(0))))
        );
        assert_eq!(s.snake(SnakeKind::Id), None);
        assert!(s.kill() && !s.unmark());
        assert_eq!(s.loop_tok(), Some(LoopToken::Back));
    }

    #[test]
    fn every_snake_character_round_trips_in_every_slot() {
        let alphabet = enumerate_alphabet(64);
        for kind in SnakeKind::ALL {
            for &c in &alphabet {
                let mut s = Signal::blank();
                s.put_snake(kind, c);
                assert_eq!(s.snake(kind), Some(c), "{kind} {c:?}");
                assert_eq!(s.occupancy(), 1);
                assert!(!s.is_blank());
                for other in SnakeKind::ALL.into_iter().filter(|&k| k != kind) {
                    assert_eq!(s.snake(other), None);
                }
            }
        }
    }

    #[test]
    fn every_token_round_trips() {
        let mut loops = vec![LoopToken::Back, LoopToken::Bca(BcaMsg::DfsReturn)];
        for o in 0..64 {
            for i in 0..64 {
                loops.push(LoopToken::Forward {
                    out_port: Port(o),
                    in_port: Port(i),
                });
            }
        }
        for t in loops {
            let mut s = Signal::blank();
            s.put_loop(t);
            assert_eq!(s.loop_tok(), Some(t));
            assert_eq!(s.occupancy(), 1);
        }
        for p in 0..64 {
            let t = DfsToken {
                sender_out_port: Port(p),
            };
            let mut s = Signal::blank();
            s.put_dfs(t);
            assert_eq!(s.dfs(), Some(t));
            assert_eq!(s.occupancy(), 1);
        }
        for parity in [false, true] {
            let mut s = Signal::blank();
            s.set_reset(!parity);
            s.set_reset(parity);
            assert_eq!(s.reset(), Some(parity));
            assert_eq!(s.occupancy(), 1);
        }
        let mut s = Signal::blank();
        s.set_unmark();
        assert!(s.unmark() && !s.kill());
        assert_eq!(s.occupancy(), 1);
    }

    #[test]
    fn full_signal_keeps_every_channel() {
        let head = SnakeChar::Head(Hop::new(Port(63), Port(63)));
        let body = SnakeChar::Body(Hop::star(Port(63)));
        let fwd = LoopToken::Forward {
            out_port: Port(63),
            in_port: Port(0),
        };
        let dfs = DfsToken {
            sender_out_port: Port(63),
        };
        let mut s = Signal::blank();
        for (i, kind) in SnakeKind::ALL.into_iter().enumerate() {
            s.put_snake(kind, if i % 2 == 0 { head } else { body });
        }
        s.set_kill();
        s.set_unmark();
        s.set_reset(true);
        s.put_loop(fwd);
        s.put_dfs(dfs);
        assert_eq!(s.occupancy(), 11);
        for (i, kind) in SnakeKind::ALL.into_iter().enumerate() {
            assert_eq!(s.snake(kind), Some(if i % 2 == 0 { head } else { body }));
        }
        assert!(s.kill() && s.unmark());
        assert_eq!(
            (s.reset(), s.loop_tok(), s.dfs()),
            (Some(true), Some(fwd), Some(dfs))
        );
        let shown = format!("{s:?}");
        for part in [
            "IG: Head",
            "OG: Body",
            "kill: true",
            "reset: true",
            "Forward",
        ] {
            assert!(shown.contains(part), "{part} missing from {shown}");
        }
    }

    #[test]
    fn blank_iff_no_channel_occupied() {
        let mut samples = vec![Signal::blank()];
        for kind in SnakeKind::ALL {
            let mut s = Signal::blank();
            s.put_snake(kind, SnakeChar::Tail);
            samples.push(s);
        }
        let mut s = Signal::blank();
        s.set_reset(false);
        samples.push(s);
        let mut s = Signal::blank();
        s.put_dfs(DfsToken {
            sender_out_port: Port(0),
        });
        samples.push(s);
        let mut s = Signal::blank();
        s.put_loop(LoopToken::Forward {
            out_port: Port(0),
            in_port: Port(0),
        });
        samples.push(s);
        for s in samples {
            assert_eq!(s.is_blank(), s.occupancy() == 0, "{s:?}");
        }
    }

    #[test]
    fn channel_union_reports_each_occupied_channel() {
        let mut a = Signal::blank();
        a.put_snake(SnakeKind::Id, SnakeChar::Tail);
        a.set_unmark();
        let mut b = Signal::blank();
        b.put_dfs(DfsToken {
            sender_out_port: Port(0),
        });
        b.set_reset(false);
        let u = Channels::of(&[a, Signal::blank(), b]);
        assert!(u.any_snake(&[SnakeKind::Id]));
        assert!(!u.any_snake(&SnakeKind::GROWING));
        assert!(u.unmark() && u.dfs() && u.reset());
        assert!(!u.kill() && !u.loop_tok());
        assert_eq!(u.snake_in(a, SnakeKind::Id), Some(SnakeChar::Tail));
        assert_eq!(u.snake_in(b, SnakeKind::Id), None);
        assert_eq!(u.snake_in(a, SnakeKind::Ig), None);
        let none = Channels::of(&[Signal::blank(); 3]);
        assert!(!none.any_snake(&SnakeKind::ALL));
        assert!(!(none.kill() || none.unmark() || none.reset() || none.loop_tok() || none.dfs()));
    }

    #[test]
    #[should_panic(expected = "collision")]
    fn same_kind_same_wire_same_tick_panics() {
        let mut s = Signal::blank();
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
        s.put_snake(SnakeKind::Ig, SnakeChar::Tail);
    }

    #[test]
    #[should_panic(expected = "dfs channel")]
    fn dfs_collision_panics() {
        let mut s = Signal::blank();
        s.put_dfs(DfsToken {
            sender_out_port: Port(0),
        });
        s.put_dfs(DfsToken {
            sender_out_port: Port(1),
        });
    }

    #[test]
    #[should_panic(expected = "loop-token channel collision")]
    fn loop_collision_panics() {
        let mut s = Signal::blank();
        s.put_loop(LoopToken::Bca(BcaMsg::DfsReturn));
        s.put_loop(LoopToken::Back);
    }

    #[test]
    fn signal_stays_compact() {
        // The wire buffer is the hottest allocation in the simulator: two
        // copies of N·δ signals. The packed product alphabet is 16 bytes.
        assert_eq!(std::mem::size_of::<Signal>(), 16);
    }

    #[test]
    fn loop_token_variants_distinct() {
        let variants = [
            LoopToken::Forward {
                out_port: Port(3),
                in_port: Port(1),
            },
            LoopToken::Forward {
                out_port: Port(1),
                in_port: Port(3),
            },
            LoopToken::Back,
            LoopToken::Bca(BcaMsg::DfsReturn),
        ];
        for (i, a) in variants.iter().enumerate() {
            for (j, b) in variants.iter().enumerate() {
                assert_eq!(a == b, i == j);
            }
        }
    }
}
