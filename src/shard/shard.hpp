// dsx::shard - replicated, priority/deadline-aware serving.
//
// Umbrella header. The subsystem serves one logical model from R >= 1
// independent CompiledModel replicas, each with its own micro-batcher and,
// for R > 1, its own partition of the host thread pool ("execution lanes")
// for genuine replica concurrency - the serving-side counterpart of the
// paper's Fig. 14 multi-GPU data-parallel scaling. Three pieces:
//
//   ReplicaSet      (shard/replica_set.hpp)      - compiles/clones the
//                   replica fleet, owns the lanes and batchers.
//   Router          (shard/router.hpp)           - round-robin /
//                   least-outstanding / power-of-two-choices routing.
//   DeadlineBatcher (shard/deadline_batcher.hpp) - EDF batch formation,
//                   priority classes, deadline shedding, bounded-queue
//                   admission control.
//
// Integration: serve::InferenceServer serves every registered model through
// a ReplicaSet; BatcherOptions::replicas picks R, so callers shard by
// changing that one field.
#pragma once

#include "shard/deadline_batcher.hpp"
#include "shard/replica_set.hpp"
#include "shard/router.hpp"
