//! Seeded inputs: the graph seed, the per-op plan seeds and the server's
//! request stream all derive from the workload seed, so one seed always
//! yields the same op sequence.

use std::collections::VecDeque;

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

/// Plan seeds are JSON numbers in plan documents: keep them well inside
/// the exactly representable integers of an f64.
const PLAN_SEED_BOUND: u64 = 1 << 40;

/// Requests per block of the server stream.  The three templates take
/// turns, so each gets an equal share: the repository records no traffic
/// mix, and a neutral one favours no layer.  Every block repeats the same
/// number of answered plans per template, so every seed sends the same mix
/// and only plan seeds and repeat picks vary.
pub const BLOCK: usize = 30;

/// Requests per template per block that repeat an answered plan: 7 of its
/// 10, i.e. 70%.
pub const REPEATS_PER_TEMPLATE: usize = 7;

/// Answered plans per template a repeat is drawn from (per connection).
pub const REPEAT_WINDOW: usize = 3;

/// FNV-1a of `bytes`.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325u64, |hash, &byte| {
        (hash ^ u64::from(byte)).wrapping_mul(0x0000_0100_0000_01b3)
    })
}

/// An independent RNG for one named stream of the workload seed.
pub fn stream(seed: u64, name: &str) -> SmallRng {
    // Hashing the stream name keeps the streams apart.
    SmallRng::seed_from_u64(seed ^ fnv1a(name.as_bytes()))
}

/// The seed the benchmark graph is generated from.
pub fn graph_seed(seed: u64) -> u64 {
    stream(seed, "graph").gen()
}

/// A fresh plan (or sparsifier) seed per draw.
pub struct Seeds(SmallRng);

impl Seeds {
    /// The named seed stream of the workload seed.
    pub fn new(seed: u64, name: &str) -> Self {
        Seeds(stream(seed, name))
    }

    /// The next seed.
    pub fn next_seed(&mut self) -> u64 {
        self.0.gen_range(0..PLAN_SEED_BOUND)
    }
}

/// The three server plan templates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Template {
    /// connectivity + degree_histogram.
    Counts,
    /// k-NN of vertex 0.
    Knn,
    /// edge_frequency (the megabyte report).
    EdgeFrequency,
}

/// Number of server plan templates.
const TEMPLATES: usize = Template::ALL.len();

impl Template {
    /// All templates, in a fixed order.
    pub const ALL: [Template; 3] = [Template::Counts, Template::Knn, Template::EdgeFrequency];

    /// Short name for report lines.
    pub fn name(self) -> &'static str {
        match self {
            Template::Counts => "counts",
            Template::Knn => "knn",
            Template::EdgeFrequency => "edge_frequency",
        }
    }
}

/// One server request: a template and its plan seed.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct PlanKey {
    /// Which plan template.
    pub template: Template,
    /// The plan's seed.
    pub seed: u64,
}

/// The request stream of one server connection.  Templates cycle through
/// [`Template::ALL`]; in each block a seeded [`REPEATS_PER_TEMPLATE`] of
/// each template's requests repeat one of the last [`REPEAT_WINDOW`]
/// answered plans of that template (cache hits, once answered), the rest
/// carry an unseen seed.  Requests are answered in order (closed loop), so
/// every earlier request has been answered when a repeat is drawn.
pub struct RequestStream {
    rng: SmallRng,
    position: usize,
    repeats: [bool; BLOCK],
    answered: Vec<VecDeque<PlanKey>>,
}

impl RequestStream {
    /// The stream of connection `connection` under the workload seed.
    pub fn new(seed: u64, connection: usize) -> Self {
        RequestStream {
            rng: stream(seed, &format!("server-connection-{connection}")),
            position: 0,
            repeats: [false; BLOCK],
            answered: vec![VecDeque::with_capacity(REPEAT_WINDOW); TEMPLATES],
        }
    }

    /// The next request and whether it repeats an answered plan.
    pub fn next_request(&mut self) -> (PlanKey, bool) {
        let slot = self.position % BLOCK;
        if slot == 0 {
            // A seeded choice of which slots of this block repeat; slot
            // `first + TEMPLATES * i` belongs to template `first`.
            self.repeats = [false; BLOCK];
            for first in 0..TEMPLATES {
                let mut placed = 0;
                while placed < REPEATS_PER_TEMPLATE {
                    let pick = first + TEMPLATES * self.rng.gen_range(0..BLOCK / TEMPLATES);
                    if !self.repeats[pick] {
                        self.repeats[pick] = true;
                        placed += 1;
                    }
                }
            }
        }
        self.position += 1;
        let template = Template::ALL[slot % TEMPLATES];
        let answered = &mut self.answered[template as usize];
        if self.repeats[slot] && !answered.is_empty() {
            let pick = self.rng.gen_range(0..answered.len());
            return (answered[pick], true);
        }
        let key = PlanKey {
            template,
            seed: self.rng.gen_range(0..PLAN_SEED_BOUND),
        };
        if answered.len() == REPEAT_WINDOW {
            answered.pop_front();
        }
        answered.push_back(key);
        (key, false)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn requests(seed: u64, connection: usize, n: usize) -> Vec<(PlanKey, bool)> {
        let mut stream = RequestStream::new(seed, connection);
        (0..n).map(|_| stream.next_request()).collect()
    }

    #[test]
    fn a_seed_always_yields_the_same_ops() {
        assert_eq!(requests(7, 0, 500), requests(7, 0, 500));
        assert_ne!(requests(7, 0, 500), requests(8, 0, 500));
        assert_ne!(requests(7, 0, 500), requests(7, 1, 500));
        let seeds = |seed| {
            let mut seeds = Seeds::new(seed, "plan");
            (0..50).map(|_| seeds.next_seed()).collect::<Vec<_>>()
        };
        assert_eq!(seeds(3), seeds(3));
        assert_ne!(seeds(3), seeds(4));
        assert_eq!(graph_seed(11), graph_seed(11));
        assert_ne!(graph_seed(11), graph_seed(12));
    }

    #[test]
    fn fnv1a_matches_reference_values() {
        assert_eq!(fnv1a(b""), 0xcbf2_9ce4_8422_2325);
        assert_eq!(fnv1a(b"a"), 0xaf63_dc4c_8601_ec8c);
    }

    #[test]
    fn repeats_name_answered_plans_at_the_configured_share() {
        let ops = requests(1, 0, 100 * BLOCK);
        let mut answered = std::collections::HashSet::new();
        for (key, repeat) in &ops {
            assert!(key.seed < PLAN_SEED_BOUND);
            if *repeat {
                assert!(answered.contains(key), "a repeat names an answered plan");
            } else {
                assert!(answered.insert(*key), "a fresh plan is unseen");
            }
        }
        // Every template gets an equal share of the requests, and repeats
        // in the configured share (only its first request finds nothing to
        // repeat).
        let expected = REPEATS_PER_TEMPLATE as f64 / (BLOCK / TEMPLATES) as f64;
        for template in Template::ALL {
            let repeats: Vec<bool> = ops
                .iter()
                .filter(|(key, _)| key.template == template)
                .map(|&(_, repeat)| repeat)
                .collect();
            assert_eq!(repeats.len(), ops.len() / TEMPLATES);
            let share = repeats.iter().filter(|&&r| r).count() as f64 / repeats.len() as f64;
            assert!(
                (share - expected).abs() < 0.01,
                "{template:?} repeat share {share}"
            );
        }
    }
}
