//! Max-min fair rate allocation by progressive filling.
//!
//! Given a set of flows, each using a set of links with fixed capacities,
//! the max-min fair allocation repeatedly finds the most contended link,
//! freezes its flows at an equal share of its remaining capacity, and
//! subtracts that share along their paths. The result is the classic
//! water-filling allocation: no flow can increase its rate without
//! decreasing that of a flow with an equal or smaller rate.
//!
//! Two implementations live here:
//!
//! * [`FairShare`] — the production allocator. It owns the live flow
//!   set as slot-indexed routes and keeps the link→flow incidence (each
//!   link's list of the slots crossing it, each slot's position in those
//!   lists, and the set of loaded links) up to date in O(path length)
//!   per [`FairShare::push`] and [`FairShare::swap_remove`]. A
//!   [`FairShare::compute`] therefore only resets the loaded links and
//!   runs the freeze rounds over them, dropping a link from the scan
//!   once all its flows are frozen: its cost is independent of how many
//!   links the network has and of how the flow set changed since the
//!   last call.
//! * [`max_min_rates_ref`] — the straightforward textbook version this
//!   module originally shipped, retained as the oracle.
//!
//! Both produce **bit-identical** rates, although they visit links and
//! flows in different orders (the oracle in ascending index order,
//! [`FairShare`] in whatever order the incidence lists hold after
//! arbitrary insertions and swap-removals), and [`FairShare`] stops
//! scanning links whose flows are all frozen. Neither can matter:
//!
//! 1. each round's `best_share` is an exact `min` over the links that
//!    still carry an unfrozen flow (the only ones either version lets
//!    contribute), which does not depend on scan order;
//! 2. each round's bottleneck set is decided per link from the state at
//!    the start of the round, before any flow is frozen;
//! 3. within a round, every subtraction on a link uses the same
//!    `best_share`, so a link sees the same sequence of clamped
//!    subtractions however its flows are enumerated.
//!
//! So every link sees the same floating-point operation sequence, every
//! round freezes the same flows at the same share, and every rate
//! matches the oracle bit for bit.

/// Most links a route may cross. Every route in the two-level tree fits:
/// `src NIC up, src rack up, dst rack down, dst NIC down`.
pub const MAX_HOPS: usize = 4;

/// One flow's route, inline, with where the flow sits in each link's
/// incidence list.
#[derive(Clone, Copy, Debug)]
struct Route {
    len: u8,
    links: [u32; MAX_HOPS],
    /// `pos[h]`: this slot's index in `FairShare::flows_on[links[h]]`.
    pos: [u32; MAX_HOPS],
}

impl Route {
    fn links(&self) -> &[u32] {
        &self.links[..self.len as usize]
    }
}

/// Max-min fair allocator over a live, slot-indexed flow set.
///
/// Flows occupy slots `0..n` in the order they were pushed;
/// [`FairShare::swap_remove`] moves the last slot into the hole, exactly
/// like [`Vec::swap_remove`], so a caller keeping slot-aligned state of
/// its own stays aligned by swap-removing it at the same time. Per-link
/// state grows the first time a link id appears, never up front.
#[derive(Clone, Debug, Default)]
pub struct FairShare {
    /// Route of each slot.
    routes: Vec<Route>,
    /// Link → slots crossing it, in no particular order.
    flows_on: Vec<Vec<u32>>,
    /// Links whose `flows_on` list is non-empty, in no particular order.
    loaded: Vec<u32>,
    /// Link → its index in `loaded` (meaningful while the link is loaded).
    loaded_at: Vec<u32>,
    /// Freeze-round scratch: the links still carrying unfrozen flows.
    fill: Vec<Fill>,
    /// Freeze-round scratch: link → its index in `fill` (meaningful
    /// while the link carries an unfrozen flow).
    fill_at: Vec<u32>,
    /// Freeze-round scratch, per slot.
    frozen: Vec<bool>,
    /// Freeze-round scratch: bottleneck links of the current round.
    round_links: Vec<u32>,
}

/// Progressive-filling state of one link.
#[derive(Clone, Copy, Debug)]
struct Fill {
    link: u32,
    /// Unfrozen flows crossing the link.
    load: u32,
    /// Capacity not yet handed to frozen flows.
    remaining: f64,
}

impl FairShare {
    /// An empty flow set.
    pub fn new() -> FairShare {
        FairShare::default()
    }

    /// Adds a flow crossing `path` (empty for a loopback flow, which
    /// gets `f64::INFINITY`) in the next free slot.
    ///
    /// # Panics
    ///
    /// Panics if `path` has more than [`MAX_HOPS`] links.
    pub fn push(&mut self, path: &[u32]) {
        assert!(path.len() <= MAX_HOPS, "path longer than {MAX_HOPS} links");
        let slot = u32::try_from(self.routes.len()).expect("slot index fits u32");
        let mut route = Route {
            len: path.len() as u8,
            links: [0; MAX_HOPS],
            pos: [0; MAX_HOPS],
        };
        for (h, &l) in path.iter().enumerate() {
            let li = l as usize;
            if li >= self.flows_on.len() {
                self.flows_on.resize_with(li + 1, Vec::new);
                self.loaded_at.resize(li + 1, 0);
                self.fill_at.resize(li + 1, 0);
            }
            let flows = &mut self.flows_on[li];
            if flows.is_empty() {
                self.loaded_at[li] = self.loaded.len() as u32;
                self.loaded.push(l);
            }
            route.links[h] = l;
            route.pos[h] = flows.len() as u32;
            flows.push(slot);
        }
        self.routes.push(route);
    }

    /// Removes the flow in `slot`; the flow in the last slot (if another)
    /// takes its place.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn swap_remove(&mut self, slot: usize) {
        for h in 0..self.routes[slot].len as usize {
            let (l, p) = (
                self.routes[slot].links[h],
                self.routes[slot].pos[h] as usize,
            );
            let flows = &mut self.flows_on[l as usize];
            flows.swap_remove(p);
            if let Some(&moved) = flows.get(p) {
                // The list's last entry filled the hole: repoint the hop
                // of the flow it belongs to.
                let from = flows.len() as u32;
                let route = &mut self.routes[moved as usize];
                let hop = (0..route.len as usize)
                    .find(|&k| route.links[k] == l && route.pos[k] == from)
                    .expect("incidence entry has a matching hop");
                route.pos[hop] = p as u32;
            } else if flows.is_empty() {
                let at = self.loaded_at[l as usize] as usize;
                self.loaded.swap_remove(at);
                if let Some(&moved) = self.loaded.get(at) {
                    self.loaded_at[moved as usize] = at as u32;
                }
            }
        }
        let last = self.routes.len() - 1;
        if slot != last {
            // The last slot moves into `slot`: rename its list entries.
            let route = self.routes[last];
            for h in 0..route.len as usize {
                self.flows_on[route.links[h] as usize][route.pos[h] as usize] = slot as u32;
            }
        }
        self.routes.swap_remove(slot);
    }

    /// Number of live flows.
    pub(crate) fn len(&self) -> usize {
        self.routes.len()
    }

    /// The links the flow in `slot` crosses.
    ///
    /// # Panics
    ///
    /// Panics if `slot` is out of range.
    pub fn path(&self, slot: usize) -> &[u32] {
        self.routes[slot].links()
    }

    /// Computes max-min fair rates of the live flows into `rates`
    /// (cleared and resized to one entry per slot). Every rate matches
    /// [`max_min_rates_ref`] bit for bit; see the module docs.
    ///
    /// # Panics
    ///
    /// Panics if a flow crosses a link `>= capacities.len()` or a link
    /// some flow crosses has a capacity that is not positive and finite.
    /// (Capacities of links no flow crosses are never read.)
    pub fn compute(&mut self, capacities: &[f64], rates: &mut Vec<f64>) {
        rates.clear();
        self.frozen.clear();
        let mut unfrozen_left = 0usize;
        for route in &self.routes {
            let loopback = route.len == 0;
            rates.push(if loopback { f64::INFINITY } else { 0.0 });
            self.frozen.push(loopback);
            unfrozen_left += usize::from(!loopback);
        }
        self.fill.clear();
        for &l in &self.loaded {
            let cap = *capacities
                .get(l as usize)
                .unwrap_or_else(|| panic!("path references unknown link {l}"));
            assert!(
                cap > 0.0 && cap.is_finite(),
                "link capacities must be positive and finite"
            );
            self.fill.push(Fill {
                link: l,
                load: self.flows_on[l as usize].len() as u32,
                remaining: cap,
            });
        }

        // Progressive filling. Each round: drop the links whose flows
        // are all frozen, find the smallest per-flow share among the
        // rest, mark every link at that share (up to fp tolerance) as a
        // bottleneck, and freeze the flows crossing them.
        while unfrozen_left > 0 {
            let mut best_share = f64::INFINITY;
            let mut kept = 0;
            for i in 0..self.fill.len() {
                let fill = self.fill[i];
                if fill.load > 0 {
                    best_share = best_share.min(fill.remaining / fill.load as f64);
                    self.fill[kept] = fill;
                    self.fill_at[fill.link as usize] = kept as u32;
                    kept += 1;
                }
            }
            self.fill.truncate(kept);
            debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
            // A small relative tolerance groups links whose shares are
            // equal up to floating-point noise.
            let tol = best_share * 1e-12;
            self.round_links.clear();
            self.round_links.extend(
                self.fill
                    .iter()
                    .filter(|f| f.remaining / f.load as f64 <= best_share + tol)
                    .map(|f| f.link),
            );
            let unfrozen_before = unfrozen_left;
            for &l in &self.round_links {
                for &f in &self.flows_on[l as usize] {
                    let f = f as usize;
                    if self.frozen[f] {
                        continue;
                    }
                    self.frozen[f] = true;
                    rates[f] = best_share;
                    unfrozen_left -= 1;
                    for &pl in self.routes[f].links() {
                        let fill = &mut self.fill[self.fill_at[pl as usize] as usize];
                        fill.remaining = (fill.remaining - best_share).max(0.0);
                        fill.load -= 1;
                    }
                }
            }
            // A bottleneck link has an unfrozen flow in its list unless
            // the incidence is out of step with the routes; fail rather
            // than loop forever.
            assert!(
                unfrozen_left < unfrozen_before,
                "freeze round froze no flow"
            );
        }
    }

    /// Checks the incidence invariants against the stored routes, for
    /// tests: every link's list holds exactly the slots whose route
    /// crosses it (once per crossing), every stored position points back
    /// at its slot, and the loaded set is exactly the links with a
    /// non-empty list.
    #[doc(hidden)]
    pub fn check_incidence(&self) -> Result<(), String> {
        let mut crossings = 0usize;
        for (slot, route) in self.routes.iter().enumerate() {
            for (h, &l) in route.links().iter().enumerate() {
                let p = route.pos[h] as usize;
                match self.flows_on.get(l as usize).and_then(|f| f.get(p)) {
                    Some(&s) if s as usize == slot => crossings += 1,
                    other => {
                        return Err(format!(
                            "slot {slot} hop {h}: link {l} position {p} holds {other:?}"
                        ))
                    }
                }
            }
        }
        let listed: usize = self.flows_on.iter().map(Vec::len).sum();
        if listed != crossings {
            return Err(format!(
                "incidence lists hold {listed} entries for {crossings} route crossings"
            ));
        }
        let mut in_loaded = vec![false; self.flows_on.len()];
        for (at, &l) in self.loaded.iter().enumerate() {
            let l = l as usize;
            if in_loaded.get(l).copied() != Some(false) {
                return Err(format!("loaded set repeats or overruns at link {l}"));
            }
            in_loaded[l] = true;
            if self.loaded_at[l] as usize != at {
                return Err(format!(
                    "link {l} sits at {at}, recorded at {}",
                    self.loaded_at[l]
                ));
            }
        }
        for (l, flows) in self.flows_on.iter().enumerate() {
            if in_loaded[l] == flows.is_empty() {
                return Err(format!(
                    "link {l}: {} flows but loaded = {}",
                    flows.len(),
                    in_loaded[l]
                ));
            }
        }
        Ok(())
    }
}

/// Reference max-min allocator: allocates its scratch per call and
/// re-scans every link and flow each freeze round. Retained as the
/// oracle for tests and the baseline for `bench_snapshot`.
///
/// * `capacities[l]` — capacity of link `l` in bits/second.
/// * `paths[f]` — the link indices flow `f` traverses (may be empty for a
///   loopback flow, which gets `f64::INFINITY`).
///
/// Returns one rate per flow, in bits/second.
///
/// # Panics
///
/// Panics if a path references an unknown link or a capacity is not
/// positive.
pub fn max_min_rates_ref(capacities: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
    assert!(
        capacities.iter().all(|&c| c > 0.0 && c.is_finite()),
        "link capacities must be positive and finite"
    );
    let num_links = capacities.len();
    let num_flows = paths.len();
    for path in paths {
        for &l in path {
            assert!(l < num_links, "path references unknown link {l}");
        }
    }

    let mut rates = vec![0.0f64; num_flows];
    let mut frozen = vec![false; num_flows];
    let mut remaining: Vec<f64> = capacities.to_vec();
    // Number of unfrozen flows crossing each link.
    let mut load = vec![0usize; num_links];
    let mut unfrozen_left = 0usize;
    for (f, path) in paths.iter().enumerate() {
        if path.is_empty() {
            rates[f] = f64::INFINITY;
            frozen[f] = true;
        } else {
            unfrozen_left += 1;
            for &l in path {
                load[l] += 1;
            }
        }
    }

    while unfrozen_left > 0 {
        // The bottleneck link: smallest per-flow share among loaded links.
        let mut best_share = f64::INFINITY;
        for l in 0..num_links {
            if load[l] > 0 {
                let share = remaining[l] / load[l] as f64;
                if share < best_share {
                    best_share = share;
                }
            }
        }
        debug_assert!(best_share.is_finite(), "no bottleneck among loaded links");
        // Freeze every unfrozen flow crossing a bottleneck link. A small
        // relative tolerance groups links whose shares are equal up to
        // floating-point noise.
        let tol = best_share * 1e-12;
        let mut bottleneck = vec![false; num_links];
        for l in 0..num_links {
            if load[l] > 0 && remaining[l] / load[l] as f64 <= best_share + tol {
                bottleneck[l] = true;
            }
        }
        for f in 0..num_flows {
            if frozen[f] || !paths[f].iter().any(|&l| bottleneck[l]) {
                continue;
            }
            rates[f] = best_share;
            frozen[f] = true;
            unfrozen_left -= 1;
            for &l in &paths[f] {
                remaining[l] = (remaining[l] - best_share).max(0.0);
                load[l] -= 1;
            }
        }
    }
    rates
}

#[cfg(test)]
mod tests {
    use super::*;

    const GBPS: f64 = 1e9;

    /// Pushes `paths` into a fresh allocator and computes, checking the
    /// incidence on the way.
    fn allocate(caps: &[f64], paths: &[Vec<usize>]) -> Vec<f64> {
        let mut fs = FairShare::new();
        for p in paths {
            fs.push(&p.iter().map(|&l| l as u32).collect::<Vec<_>>());
        }
        fs.check_incidence().unwrap();
        let mut rates = Vec::new();
        fs.compute(caps, &mut rates);
        rates
    }

    fn bits(rates: &[f64]) -> Vec<u64> {
        rates.iter().map(|r| r.to_bits()).collect()
    }

    /// Asserts the incidence is consistent and the rates match the
    /// oracle over the live paths.
    fn assert_matches_oracle(fs: &mut FairShare, caps: &[f64]) {
        fs.check_incidence().unwrap();
        let mut rates = Vec::new();
        fs.compute(caps, &mut rates);
        let live: Vec<Vec<usize>> = (0..fs.len())
            .map(|s| fs.path(s).iter().map(|&l| l as usize).collect())
            .collect();
        assert_eq!(bits(&rates), bits(&max_min_rates_ref(caps, &live)));
    }

    #[test]
    fn single_flow_gets_full_bottleneck() {
        let rates = allocate(&[GBPS, 0.1 * GBPS], &[vec![0, 1]]);
        assert_eq!(rates, vec![0.1 * GBPS]);
    }

    #[test]
    fn equal_flows_split_equally() {
        // The paper's motivating scenario: two degraded reads sharing one
        // rack downlink each get half the bandwidth.
        let rates = allocate(&[0.1 * GBPS], &[vec![0], vec![0]]);
        assert!((rates[0] - 0.05 * GBPS).abs() < 1.0);
        assert!((rates[1] - 0.05 * GBPS).abs() < 1.0);
    }

    #[test]
    fn water_filling_redistribution() {
        // Link 0: 1 Gbps shared by flows A and B; flow B also crosses
        // link 1 at 0.2 Gbps. B is frozen at 0.2; A then gets 0.8.
        let rates = allocate(&[GBPS, 0.2 * GBPS], &[vec![0], vec![0, 1]]);
        assert!((rates[1] - 0.2 * GBPS).abs() < 1.0, "B {}", rates[1]);
        assert!((rates[0] - 0.8 * GBPS).abs() < 1.0, "A {}", rates[0]);
    }

    #[test]
    fn loopback_flows_are_infinite() {
        let rates = allocate(&[GBPS], &[vec![], vec![0]]);
        assert_eq!(rates[0], f64::INFINITY);
        assert_eq!(rates[1], GBPS);
    }

    #[test]
    fn no_flows() {
        assert!(allocate(&[GBPS], &[]).is_empty());
    }

    #[test]
    fn allocation_is_feasible_and_pareto() {
        // Random-ish topology: 5 links, 8 flows; verify (1) no link is
        // oversubscribed, (2) every flow has a saturated link on its path
        // whose other flows are not smaller (max-min certificate).
        let caps = [GBPS, 0.5 * GBPS, 0.25 * GBPS, 2.0 * GBPS, 0.75 * GBPS];
        let paths: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![4],
            vec![0, 4],
            vec![1, 4],
            vec![2],
        ];
        let rates = allocate(&caps, &paths);
        let mut usage = [0.0f64; 5];
        for (f, path) in paths.iter().enumerate() {
            assert!(rates[f] > 0.0);
            for &l in path {
                usage[l] += rates[f];
            }
        }
        for l in 0..5 {
            assert!(
                usage[l] <= caps[l] * (1.0 + 1e-9),
                "link {l} oversubscribed"
            );
        }
        for (f, path) in paths.iter().enumerate() {
            let has_certificate = path.iter().any(|&l| {
                let saturated = usage[l] >= caps[l] * (1.0 - 1e-9);
                let is_max_on_link = paths
                    .iter()
                    .enumerate()
                    .filter(|(_, p)| p.contains(&l))
                    .all(|(g, _)| rates[g] <= rates[f] * (1.0 + 1e-9));
                saturated && is_max_on_link
            });
            assert!(has_certificate, "flow {f} has no bottleneck certificate");
        }
    }

    #[test]
    fn workspace_matches_reference_bit_for_bit() {
        // A contended mesh with ties and loopbacks.
        let caps = [
            GBPS,
            0.5 * GBPS,
            0.25 * GBPS,
            2.0 * GBPS,
            0.75 * GBPS,
            0.1 * GBPS,
        ];
        let paths: Vec<Vec<usize>> = vec![
            vec![0, 1],
            vec![],
            vec![1, 2],
            vec![2, 3],
            vec![0, 3],
            vec![4],
            vec![0, 4],
            vec![1, 4],
            vec![2],
            vec![5],
            vec![5],
            vec![0, 5],
            vec![],
        ];
        assert_eq!(
            bits(&allocate(&caps, &paths)),
            bits(&max_min_rates_ref(&caps, &paths))
        );
    }

    #[test]
    fn matches_reference_bit_for_bit_over_padded_links() {
        // The same mesh spread over a huge capacity vector where almost
        // every link is untouched.
        let mut caps = vec![3.3 * GBPS; 4096];
        for (l, c) in [
            (0usize, GBPS),
            (100, 0.5 * GBPS),
            (2000, 0.25 * GBPS),
            (2001, 2.0 * GBPS),
            (4000, 0.75 * GBPS),
            (4095, 0.1 * GBPS),
        ] {
            caps[l] = c;
        }
        let paths: Vec<Vec<usize>> = vec![
            vec![0, 100],
            vec![],
            vec![100, 2000],
            vec![2000, 2001],
            vec![0, 2001],
            vec![4000],
            vec![0, 4000],
            vec![100, 4000],
            vec![2000],
            vec![4095],
            vec![4095],
            vec![0, 4095],
            vec![],
        ];
        assert_eq!(
            bits(&allocate(&caps, &paths)),
            bits(&max_min_rates_ref(&caps, &paths))
        );
    }

    #[test]
    fn sparse_never_reads_untouched_capacities() {
        // Untouched links may carry garbage capacities (NaN, zero).
        let caps = [GBPS, f64::NAN, 0.0, -5.0, 0.5 * GBPS];
        let paths = [vec![0, 4], vec![4]];
        let expected = allocate(&[GBPS, GBPS, GBPS, GBPS, 0.5 * GBPS], &paths);
        assert_eq!(allocate(&caps, &paths), expected);
    }

    #[test]
    fn removing_the_last_slot() {
        let caps = [GBPS, 0.5 * GBPS, 0.25 * GBPS];
        let mut fs = FairShare::new();
        fs.push(&[0, 1]);
        fs.push(&[1, 2]);
        fs.push(&[2]);
        fs.swap_remove(2);
        assert_matches_oracle(&mut fs, &caps);
        fs.swap_remove(1);
        fs.swap_remove(0);
        assert_matches_oracle(&mut fs, &caps);
    }

    #[test]
    fn removing_a_slot_whose_replacement_shares_its_links() {
        // Slot 0 and the last slot share links 1 and 2, and the last
        // slot's entries sit at the ends of those lists, so removing
        // slot 0 both shuffles the lists and renames the moved flow.
        let caps = [GBPS, 0.5 * GBPS, 0.25 * GBPS, 2.0 * GBPS];
        let mut fs = FairShare::new();
        fs.push(&[0, 1, 2]);
        fs.push(&[1, 3]);
        fs.push(&[3, 2]);
        fs.push(&[1, 2]);
        fs.swap_remove(0);
        assert_eq!(fs.path(0), &[1, 2]);
        assert_matches_oracle(&mut fs, &caps);
        // Slots now route [1, 2], [1, 3], [3, 2]: removing the middle
        // moves in [3, 2], which shares link 3; then the front.
        fs.swap_remove(1);
        assert_matches_oracle(&mut fs, &caps);
        fs.swap_remove(0);
        assert_eq!(fs.path(0), &[3, 2]);
        assert_matches_oracle(&mut fs, &caps);
    }

    #[test]
    fn a_link_that_empties_is_loaded_again() {
        let caps = [GBPS, 0.5 * GBPS, 0.25 * GBPS];
        let mut fs = FairShare::new();
        fs.push(&[0, 2]);
        fs.push(&[1]);
        fs.swap_remove(0); // links 0 and 2 empty; link 1 moves in `loaded`
        assert_matches_oracle(&mut fs, &caps);
        fs.push(&[2]);
        fs.push(&[0, 1]);
        assert_matches_oracle(&mut fs, &caps);
        fs.swap_remove(0);
        fs.swap_remove(0);
        fs.swap_remove(0);
        fs.push(&[2, 0]);
        assert_matches_oracle(&mut fs, &caps);
    }

    #[test]
    fn workspace_reuse_is_clean_across_calls() {
        let caps = vec![GBPS; 64];
        let mut fs = FairShare::new();
        fs.push(&[0, 1]);
        fs.push(&[1]);
        let mut rates = vec![99.0; 7];
        fs.compute(&caps, &mut rates);
        let first = rates.clone();
        assert_eq!(first.len(), 2);
        fs.compute(&caps, &mut rates);
        assert_eq!(rates, first);
        // A different flow set over a larger link space, then back.
        fs.swap_remove(0);
        fs.swap_remove(0);
        fs.push(&[63]);
        fs.compute(&caps, &mut rates);
        assert_eq!(rates, vec![GBPS]);
        fs.swap_remove(0);
        fs.compute(&caps, &mut rates);
        assert!(rates.is_empty());
        fs.push(&[0, 1]);
        fs.push(&[1]);
        fs.compute(&caps, &mut rates);
        assert_eq!(rates, first);
    }

    #[test]
    fn sparse_reuse_is_clean_across_calls_and_epochs() {
        // The capacity vector may shrink between calls: a link that was
        // loaded under a larger link space and has since emptied must
        // not be read again.
        let small = [GBPS, 0.5 * GBPS];
        let mut fs = FairShare::new();
        fs.push(&[0, 1]);
        fs.push(&[1]);
        let mut rates = Vec::new();
        fs.compute(&small, &mut rates);
        let first = rates.clone();
        // A different problem over a larger link space.
        fs.swap_remove(0);
        fs.swap_remove(0);
        fs.push(&[63]);
        fs.compute(&vec![GBPS; 64], &mut rates);
        assert_eq!(rates, vec![GBPS]);
        // Shrinking back must not see the stale link 63.
        fs.swap_remove(0);
        fs.push(&[0, 1]);
        fs.push(&[1]);
        fs.compute(&small, &mut rates);
        assert_eq!(rates, first);
        // No flows at all.
        fs.swap_remove(0);
        fs.swap_remove(0);
        fs.compute(&[GBPS], &mut rates);
        assert!(rates.is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn sparse_rejects_unknown_link() {
        // A link one past the capacity vector, beside a valid loaded one.
        let mut fs = FairShare::new();
        fs.push(&[63]);
        let mut rates = Vec::new();
        fs.compute(&vec![GBPS; 64], &mut rates);
        fs.push(&[64]);
        fs.compute(&vec![GBPS; 64], &mut rates);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn rejects_unknown_link() {
        let _ = allocate(&[GBPS], &[vec![3]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn rejects_zero_capacity() {
        let _ = max_min_rates_ref(&[0.0], &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "positive")]
    fn sparse_rejects_zero_capacity_on_touched_link() {
        let _ = allocate(&[0.0], &[vec![0]]);
    }

    #[test]
    #[should_panic(expected = "longer than")]
    fn rejects_overlong_path() {
        FairShare::new().push(&[0, 1, 2, 3, 4]);
    }

    #[test]
    #[should_panic(expected = "unknown link")]
    fn reference_rejects_unknown_link() {
        let _ = max_min_rates_ref(&[GBPS], &[vec![3]]);
    }
}
