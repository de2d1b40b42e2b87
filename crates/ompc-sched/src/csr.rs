//! Per-task lists stored flat.

/// Lists grouped by task in two allocations — compressed sparse rows: task
/// `t`'s list is `items[start[t]..start[t + 1]]`.
///
/// The task graphs of both layers keep their adjacency this way: the
/// scheduler's [`crate::TaskGraph`], and in `ompc-core` the region graph and
/// the dispatch core's view of whichever graph it runs. A table is grouped
/// at once from its entries ([`Csr::group`]), or built list after list as
/// tasks arrive ([`Csr::push`], [`Csr::end_list`]).
#[derive(Debug, Clone)]
pub struct Csr<T> {
    start: Vec<usize>,
    items: Vec<T>,
}

impl<T> Default for Csr<T> {
    /// No lists.
    fn default() -> Self {
        Self { start: Vec::new(), items: Vec::new() }
    }
}

impl<T> Csr<T> {
    /// No lists yet, with room for `lists` lists of `items` items in all:
    /// building that many list after list allocates nothing more.
    pub fn with_capacity(lists: usize, items: usize) -> Self {
        Self { start: Vec::with_capacity(lists + 1), items: Vec::with_capacity(items) }
    }

    /// Append `item` to the list being built: the next task's.
    pub fn push(&mut self, item: T) {
        self.items.push(item);
    }

    /// Close the list being built: what was pushed since the last list was
    /// closed is the next task's list.
    pub fn end_list(&mut self) {
        if self.start.is_empty() {
            self.start.push(0);
        }
        self.start.push(self.items.len());
    }

    /// Where task `task`'s list sits in the flat table: a table of the same
    /// length laid out alongside this one holds the task's entries there.
    pub fn span(&self, task: usize) -> std::ops::Range<usize> {
        self.start[task]..self.start[task + 1]
    }

    /// The items pushed since the last list was closed.
    pub fn open_list(&self) -> &[T] {
        &self.items[self.start.last().copied().unwrap_or(0)..]
    }

    /// A table of the same lists, each item `f` of its task and itself:
    /// copied as it lies, nothing grouped again.
    pub fn map<U>(&self, mut f: impl FnMut(usize, &T) -> U) -> Csr<U> {
        let mut items = Vec::with_capacity(self.items.len());
        for task in 0..self.start.len().saturating_sub(1) {
            items.extend(self.items[self.span(task)].iter().map(|item| f(task, item)));
        }
        Csr { start: self.start.clone(), items }
    }
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
        &self.items[self.span(task)]
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

    #[test]
    fn a_mapped_table_has_the_same_lists() {
        let entries = [(2, 'a'), (0, 'b'), (2, 'c'), (0, 'd'), (3, 'e')];
        let lists = Csr::group(4, entries.iter().copied());
        let mapped = lists.map(|task, &item| (task, item.to_ascii_uppercase()));
        for task in 0..4 {
            let want: Vec<(usize, char)> =
                lists.get(task).iter().map(|&c| (task, c.to_ascii_uppercase())).collect();
            assert_eq!((mapped.get(task), mapped.span(task)), (&want[..], lists.span(task)));
        }
        assert!(Csr::<char>::default().map(|_, &c| c).open_list().is_empty());
    }

    #[test]
    fn lists_built_one_after_another_read_as_the_grouped_ones() {
        let entries = [(0, 'b'), (0, 'd'), (2, 'a'), (2, 'c'), (3, 'e')];
        let mut built = Csr::with_capacity(4, entries.len());
        for task in 0..4 {
            entries.iter().filter(|&&(t, _)| t == task).for_each(|&(_, item)| built.push(item));
            if task == 3 {
                assert_eq!(built.open_list(), &['e']);
            }
            built.end_list();
        }
        assert!(built.open_list().is_empty());
        let grouped = Csr::group(4, entries.iter().copied());
        for task in 0..4 {
            assert_eq!(
                (built.get(task), built.span(task)),
                (grouped.get(task), grouped.span(task))
            );
        }
    }
}
