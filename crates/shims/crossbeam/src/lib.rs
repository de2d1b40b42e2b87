//! A minimal, API-compatible stand-in for the `crossbeam` crate.
//!
//! Only `crossbeam::channel::unbounded` is used by this workspace: a
//! multi-producer **multi-consumer** FIFO channel (std's mpsc receiver is
//! not cloneable, which the head-node worker pool requires). Implemented
//! with a mutex-protected queue and a condition variable.
//!
//! A send to a channel nobody sleeps on is free of system calls, as in the
//! crate this stands in for: receivers count themselves asleep under the
//! queue's mutex before they wait, and a sender notifies only when that
//! count is non-zero.

pub mod channel {
    use std::collections::VecDeque;
    use std::fmt;
    use std::sync::{Arc, Condvar, Mutex, PoisonError};

    struct State<T> {
        queue: VecDeque<T>,
        senders: usize,
        receivers: usize,
        /// Receivers inside a condvar wait. Raised under the mutex before
        /// the wait, so whoever changes the queue or `senders` under the
        /// same mutex sees every receiver its change could have to wake.
        sleeping: usize,
    }

    struct Shared<T> {
        state: Mutex<State<T>>,
        available: Condvar,
    }

    impl<T> Shared<T> {
        fn lock(&self) -> std::sync::MutexGuard<'_, State<T>> {
            self.state.lock().unwrap_or_else(PoisonError::into_inner)
        }

        /// Sleep until notified or `timeout` (if any) elapses, counted in
        /// `sleeping` for exactly as long.
        fn sleep<'a>(
            &self,
            mut state: std::sync::MutexGuard<'a, State<T>>,
            timeout: Option<std::time::Duration>,
        ) -> std::sync::MutexGuard<'a, State<T>> {
            state.sleeping += 1;
            let mut state = match timeout {
                None => self.available.wait(state).unwrap_or_else(PoisonError::into_inner),
                Some(t) => {
                    self.available.wait_timeout(state, t).unwrap_or_else(PoisonError::into_inner).0
                }
            };
            state.sleeping -= 1;
            state
        }
    }

    /// Sending half of an unbounded channel.
    pub struct Sender<T>(Arc<Shared<T>>);

    /// Receiving half of an unbounded channel. Cloneable: receivers compete
    /// for messages (work-queue semantics).
    pub struct Receiver<T>(Arc<Shared<T>>);

    /// Error returned by [`Sender::send`] when every receiver is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct SendError<T>(pub T);

    /// Error returned by [`Receiver::recv`] when the channel is empty and
    /// every sender is gone.
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub struct RecvError;

    /// Error returned by [`Receiver::try_recv`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum TryRecvError {
        /// No message currently queued.
        Empty,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    /// Error returned by [`Receiver::recv_timeout`].
    #[derive(Debug, Clone, Copy, PartialEq, Eq)]
    pub enum RecvTimeoutError {
        /// No message arrived within the timeout.
        Timeout,
        /// Channel empty and every sender dropped.
        Disconnected,
    }

    impl<T> fmt::Display for SendError<T> {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "sending on a disconnected channel")
        }
    }

    impl fmt::Display for RecvError {
        fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
            write!(f, "receiving on an empty, disconnected channel")
        }
    }

    /// Create an unbounded mpmc FIFO channel.
    pub fn unbounded<T>() -> (Sender<T>, Receiver<T>) {
        let shared = Arc::new(Shared {
            state: Mutex::new(State {
                queue: VecDeque::new(),
                senders: 1,
                receivers: 1,
                sleeping: 0,
            }),
            available: Condvar::new(),
        });
        (Sender(Arc::clone(&shared)), Receiver(shared))
    }

    impl<T> Sender<T> {
        /// Enqueue `value`; fails only when every receiver has been dropped.
        pub fn send(&self, value: T) -> Result<(), SendError<T>> {
            let mut state = self.0.lock();
            if state.receivers == 0 {
                return Err(SendError(value));
            }
            state.queue.push_back(value);
            let asleep = state.sleeping > 0;
            drop(state);
            if asleep {
                self.0.available.notify_one();
            }
            Ok(())
        }
    }

    impl<T> Clone for Sender<T> {
        fn clone(&self) -> Self {
            self.0.lock().senders += 1;
            Sender(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Sender<T> {
        fn drop(&mut self) {
            let mut state = self.0.lock();
            state.senders -= 1;
            let asleep = state.senders == 0 && state.sleeping > 0;
            drop(state);
            if asleep {
                self.0.available.notify_all();
            }
        }
    }

    impl<T> Receiver<T> {
        /// Dequeue the next message, blocking until one arrives; fails when
        /// the channel is empty and every sender has been dropped.
        pub fn recv(&self) -> Result<T, RecvError> {
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvError);
                }
                state = self.0.sleep(state, None);
            }
        }

        /// Dequeue the next message, blocking at most `timeout`; fails with
        /// [`RecvTimeoutError::Timeout`] when nothing arrives in time, or
        /// [`RecvTimeoutError::Disconnected`] when the channel is empty and
        /// every sender is gone.
        pub fn recv_timeout(&self, timeout: std::time::Duration) -> Result<T, RecvTimeoutError> {
            let deadline = std::time::Instant::now() + timeout;
            let mut state = self.0.lock();
            loop {
                if let Some(value) = state.queue.pop_front() {
                    return Ok(value);
                }
                if state.senders == 0 {
                    return Err(RecvTimeoutError::Disconnected);
                }
                let now = std::time::Instant::now();
                if now >= deadline {
                    return Err(RecvTimeoutError::Timeout);
                }
                state = self.0.sleep(state, Some(deadline - now));
            }
        }

        /// Dequeue the next message without blocking.
        pub fn try_recv(&self) -> Result<T, TryRecvError> {
            let mut state = self.0.lock();
            match state.queue.pop_front() {
                Some(value) => Ok(value),
                None if state.senders == 0 => Err(TryRecvError::Disconnected),
                None => Err(TryRecvError::Empty),
            }
        }

        /// Number of currently queued messages.
        pub fn len(&self) -> usize {
            self.0.lock().queue.len()
        }

        /// Whether no messages are queued.
        pub fn is_empty(&self) -> bool {
            self.len() == 0
        }

        /// Receivers currently asleep in `recv` / `recv_timeout`.
        #[cfg(test)]
        pub(crate) fn sleeping(&self) -> usize {
            self.0.lock().sleeping
        }
    }

    impl<T> Clone for Receiver<T> {
        fn clone(&self) -> Self {
            self.0.lock().receivers += 1;
            Receiver(Arc::clone(&self.0))
        }
    }

    impl<T> Drop for Receiver<T> {
        fn drop(&mut self) {
            self.0.lock().receivers -= 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::channel;

    /// A wait that a lost wake-up would hang fails after this long instead.
    const WATCHDOG: std::time::Duration = std::time::Duration::from_secs(60);

    /// Spin (no clock) until exactly `n` receivers are asleep on the channel.
    fn until_sleeping(rx: &channel::Receiver<u32>, n: usize) {
        while rx.sleeping() != n {
            std::thread::yield_now();
        }
    }

    #[test]
    fn recv_timeout_times_out_then_delivers() {
        use std::time::Duration;
        let (tx, rx) = channel::unbounded::<u32>();
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Timeout)
        );
        tx.send(7).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)), Ok(7));
        drop(tx);
        assert_eq!(
            rx.recv_timeout(Duration::from_millis(10)),
            Err(channel::RecvTimeoutError::Disconnected)
        );
    }

    #[test]
    fn fifo_roundtrip() {
        let (tx, rx) = channel::unbounded();
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        assert_eq!(rx.recv(), Ok(1));
        assert_eq!(rx.try_recv(), Ok(2));
        assert_eq!(rx.try_recv(), Err(channel::TryRecvError::Empty));
    }

    #[test]
    fn recv_fails_after_all_senders_drop() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        tx2.send(7).unwrap();
        drop(tx);
        drop(tx2);
        assert_eq!(rx.recv(), Ok(7));
        assert_eq!(rx.recv(), Err(channel::RecvError));
    }

    #[test]
    fn send_fails_after_all_receivers_drop() {
        let (tx, rx) = channel::unbounded::<u32>();
        drop(rx);
        assert!(tx.send(1).is_err());
    }

    #[test]
    fn cloned_receivers_compete_for_messages() {
        let (tx, rx) = channel::unbounded();
        let rx2 = rx.clone();
        for i in 0..64 {
            tx.send(i).unwrap();
        }
        drop(tx);
        let a = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx.recv() {
                got.push(v);
            }
            got
        });
        let b = std::thread::spawn(move || {
            let mut got = Vec::new();
            while let Ok(v) = rx2.recv() {
                got.push(v);
            }
            got
        });
        let mut all = a.join().unwrap();
        all.extend(b.join().unwrap());
        all.sort_unstable();
        assert_eq!(all, (0..64).collect::<Vec<_>>());
    }

    #[test]
    fn a_bursty_producer_loses_nothing_to_a_slow_consumer() {
        // The consumer alternates between finding the queue non-empty (no
        // sleep, so the sender must not need to notify) and sleeping on an
        // empty one (so the sender must): bursts of sends with a yield
        // between them hit both, and every value must come out once, in
        // order.
        const BURSTS: u32 = 2_000;
        const BURST: u32 = 8;
        let (tx, rx) = channel::unbounded::<u32>();
        let consumer = std::thread::spawn(move || {
            let mut next = 0;
            while let Ok(v) = rx.recv_timeout(WATCHDOG) {
                assert_eq!(v, next);
                next += 1;
                if v % 5 == 0 {
                    std::thread::yield_now();
                }
            }
            next
        });
        for burst in 0..BURSTS {
            for i in 0..BURST {
                tx.send(burst * BURST + i).unwrap();
            }
            std::thread::yield_now();
        }
        drop(tx);
        assert_eq!(consumer.join().unwrap(), BURSTS * BURST);
    }

    #[test]
    fn timed_and_untimed_receivers_are_both_counted_asleep_and_woken() {
        let (tx, rx) = channel::unbounded::<u32>();
        let sleepers = |n| until_sleeping(&rx, n);
        let (rx1, rx2) = (rx.clone(), rx.clone());
        let timed = std::thread::spawn(move || rx1.recv_timeout(WATCHDOG));
        let untimed = std::thread::spawn(move || rx2.recv());
        sleepers(2);
        tx.send(1).unwrap();
        tx.send(2).unwrap();
        let mut got = vec![timed.join().unwrap().unwrap(), untimed.join().unwrap().unwrap()];
        got.sort_unstable();
        assert_eq!(got, vec![1, 2]);
        sleepers(0);
        // A wait that times out is uncounted again.
        assert!(rx.recv_timeout(std::time::Duration::from_millis(1)).is_err());
        sleepers(0);
    }

    #[test]
    fn dropping_the_last_sender_wakes_every_sleeper() {
        let (tx, rx) = channel::unbounded::<u32>();
        let tx2 = tx.clone();
        let (rx1, rx2) = (rx.clone(), rx.clone());
        let timed = std::thread::spawn(move || rx1.recv_timeout(WATCHDOG));
        let untimed = std::thread::spawn(move || rx2.recv());
        until_sleeping(&rx, 2);
        drop(tx);
        assert_eq!(rx.sleeping(), 2, "a sender remains: nobody is woken");
        drop(tx2);
        assert_eq!(timed.join().unwrap(), Err(channel::RecvTimeoutError::Disconnected));
        assert_eq!(untimed.join().unwrap(), Err(channel::RecvError));
    }
}
