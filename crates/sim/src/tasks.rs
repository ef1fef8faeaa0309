//! Task-type pools for the transitivity experiments (§5.5).
//!
//! The network hosts multiple task types, each consisting of one or two
//! characteristics drawn from a pool of `n_characteristics` (the paper
//! sweeps 4–7). Every node has *experienced* two task types; neighbours
//! hold trustworthiness records about those.

use rand::rngs::SmallRng;
use rand::seq::SliceRandom;
use rand::Rng;
use siot_core::task::{CharacteristicId, Task, TaskId};

/// A pool of task types over a characteristic alphabet.
#[derive(Debug, Clone)]
pub struct TaskPool {
    tasks: Vec<Task>,
    /// Ids of the 2-characteristic types, in pool order.
    pair_ids: Vec<TaskId>,
    n_characteristics: usize,
}

impl TaskPool {
    /// Builds a pool containing every 1-characteristic type plus
    /// `extra_pairs` random 2-characteristic types.
    ///
    /// The alphabet holds at most 64 characteristics: the trustee search
    /// keeps each node's coverage as one `u64` bit mask.
    pub fn generate(n_characteristics: usize, extra_pairs: usize, rng: &mut SmallRng) -> Self {
        assert!(n_characteristics >= 1, "need at least one characteristic");
        assert!(
            n_characteristics <= 64,
            "at most 64 characteristics (the width of the search's coverage mask), got \
             {n_characteristics}"
        );
        let mut tasks = Vec::new();
        let mut next_id = 0u32;
        for c in 0..n_characteristics as u32 {
            tasks.push(
                Task::uniform(TaskId(next_id), [CharacteristicId(c)])
                    .expect("single characteristic task"),
            );
            next_id += 1;
        }
        // all distinct unordered pairs, shuffled, take extra_pairs
        let mut pairs = Vec::new();
        for a in 0..n_characteristics as u32 {
            for b in a + 1..n_characteristics as u32 {
                pairs.push((a, b));
            }
        }
        pairs.shuffle(rng);
        let mut pair_ids = Vec::new();
        for &(a, b) in pairs.iter().take(extra_pairs) {
            tasks.push(
                Task::uniform(TaskId(next_id), [CharacteristicId(a), CharacteristicId(b)])
                    .expect("pair task"),
            );
            pair_ids.push(TaskId(next_id));
            next_id += 1;
        }
        TaskPool { tasks, pair_ids, n_characteristics }
    }

    /// All task types.
    pub fn tasks(&self) -> &[Task] {
        &self.tasks
    }

    /// Task definition by id (ids are dense).
    pub fn task(&self, id: TaskId) -> &Task {
        &self.tasks[id.0 as usize]
    }

    /// Number of task types.
    pub fn len(&self) -> usize {
        self.tasks.len()
    }

    /// Whether the pool is empty.
    pub fn is_empty(&self) -> bool {
        self.tasks.is_empty()
    }

    /// Size of the characteristic alphabet.
    pub fn n_characteristics(&self) -> usize {
        self.n_characteristics
    }

    /// A random task type id.
    fn random_task(&self, rng: &mut SmallRng) -> TaskId {
        self.tasks[rng.gen_range(0..self.tasks.len())].id()
    }

    /// A random *2-characteristic* task type id (requests in the
    /// transitivity experiment), falling back to any task if the pool has
    /// no pairs.
    pub fn random_pair_task(&self, rng: &mut SmallRng) -> TaskId {
        if self.pair_ids.is_empty() {
            return self.random_task(rng);
        }
        self.pair_ids[rng.gen_range(0..self.pair_ids.len())]
    }

    /// `count` distinct experienced task ids for one node.
    pub fn sample_experienced(&self, count: usize, rng: &mut SmallRng) -> Vec<TaskId> {
        let mut ids: Vec<TaskId> = self.tasks.iter().map(|t| t.id()).collect();
        ids.shuffle(rng);
        ids.truncate(count.min(self.tasks.len()));
        ids.sort_unstable();
        ids
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::SeedableRng;

    fn rng() -> SmallRng {
        SmallRng::seed_from_u64(42)
    }

    #[test]
    fn pool_contains_singletons_and_pairs() {
        let pool = TaskPool::generate(5, 4, &mut rng());
        assert_eq!(pool.len(), 9);
        assert!(!pool.is_empty());
        assert_eq!(pool.n_characteristics(), 5);
        let singles = pool.tasks().iter().filter(|t| t.len() == 1).count();
        let pairs = pool.tasks().iter().filter(|t| t.len() == 2).count();
        assert_eq!(singles, 5);
        assert_eq!(pairs, 4);
    }

    #[test]
    fn extra_pairs_capped_at_possible_pairs() {
        let pool = TaskPool::generate(3, 100, &mut rng());
        assert_eq!(pool.len(), 3 + 3); // C(3,2) = 3
    }

    #[test]
    fn random_pair_task_is_a_pair() {
        let pool = TaskPool::generate(6, 8, &mut rng());
        let mut r = rng();
        for _ in 0..20 {
            let id = pool.random_pair_task(&mut r);
            assert_eq!(pool.task(id).len(), 2);
        }
    }

    #[test]
    #[should_panic(expected = "at most 64 characteristics")]
    fn alphabet_wider_than_the_coverage_mask_is_refused() {
        TaskPool::generate(65, 0, &mut rng());
    }

    #[test]
    fn pair_fallback_when_no_pairs() {
        let pool = TaskPool::generate(4, 0, &mut rng());
        let id = pool.random_pair_task(&mut rng());
        assert_eq!(pool.task(id).len(), 1);
    }

    #[test]
    fn sample_experienced_distinct_and_sorted() {
        let pool = TaskPool::generate(7, 10, &mut rng());
        let mut r = rng();
        for _ in 0..10 {
            let e = pool.sample_experienced(2, &mut r);
            assert_eq!(e.len(), 2);
            assert!(e[0] < e[1]);
        }
    }

    #[test]
    fn sample_more_than_pool_truncates() {
        let pool = TaskPool::generate(2, 1, &mut rng());
        let e = pool.sample_experienced(10, &mut rng());
        assert_eq!(e.len(), pool.len());
    }

    #[test]
    fn task_ids_dense() {
        let pool = TaskPool::generate(4, 3, &mut rng());
        for (i, t) in pool.tasks().iter().enumerate() {
            assert_eq!(t.id(), TaskId(i as u32));
        }
    }
}
