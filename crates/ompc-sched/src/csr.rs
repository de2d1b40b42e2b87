//! Per-task lists stored flat.

/// Lists grouped by task in two allocations — compressed sparse rows: task
/// `t`'s list is `items[start[t]..start[t + 1]]`.
///
/// The task graphs of both layers keep their adjacency this way: the
/// scheduler's [`crate::TaskGraph`], and in `ompc-core` the region graph and
/// the dispatch core's view of whichever graph it runs.
#[derive(Debug, Clone)]
pub struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T: Copy> Csr<T> {
    /// `entries` — `(task, item)` pairs of `tasks` tasks — grouped by task,
    /// each task's items in the order `entries` yields them.
    pub fn group(tasks: usize, entries: impl Iterator<Item = (usize, T)> + Clone) -> Self {
        let mut start = vec![0; tasks + 1];
        for (task, _) in entries.clone() {
            start[task + 1] += 1;
        }
        for task in 0..tasks {
            start[task + 1] += start[task];
        }
        // Every slot is written below; the first item only fills them.
        let mut items = match entries.clone().next() {
            Some((_, first)) => vec![first; start[tasks]],
            None => Vec::new(),
        };
        // Each task's cursor is its start; once every item is placed it
        // has moved on to the next task's start, and the whole table moves
        // back by one.
        for (task, item) in entries {
            items[start[task]] = item;
            start[task] += 1;
        }
        start.copy_within(0..tasks, 1);
        start[0] = 0;
        Self { start, items }
    }

    /// Task `task`'s list.
    pub fn get(&self, task: usize) -> &[T] {
        &self.items[self.start[task]..self.start[task + 1]]
    }

    /// Where task `task`'s list sits in the flat table: a table of the same
    /// length laid out alongside this one holds the task's entries there.
    pub(crate) fn span(&self, task: usize) -> std::ops::Range<usize> {
        self.start[task]..self.start[task + 1]
    }

    /// Every list, task after task.
    pub(crate) fn items_mut(&mut self) -> &mut [T] {
        &mut self.items
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn grouped_lists_keep_the_order_their_entries_came_in() {
        let entries = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let lists = Csr::group(4, entries.iter().copied());
        let got: Vec<&[char]> = (0..4).map(|task| lists.get(task)).collect();
        assert_eq!(got, [&['b', 'd'][..], &[], &['a', 'c'], &['e']]);
        assert_eq!(lists.span(2), 2..4);
        let none = Csr::<char>::group(3, std::iter::empty());
        assert!((0..3).all(|task| none.get(task).is_empty()));
    }
}
