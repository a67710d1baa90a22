#pragma once

/// \file adattl.h
/// Umbrella header for the adattl library — adaptive-TTL DNS load
/// balancing for geographically distributed heterogeneous Web servers
/// (Colajanni, Cardellini & Yu, ICDCS 1998).
///
/// Layering (each layer depends only on those above it):
///
///   sim/        discrete-event kernel, RNG, statistics, coroutine API
///   web/        heterogeneous Web servers, cluster presets, monitoring
///   core/       the paper's contribution: selection + TTL policies,
///               calibration, estimation, alarm feedback, factory
///   fault/      scenario-driven failure injection (crash/degrade/pause
///               windows, authoritative-DNS outage calendar)
///   dnscache/   name-server and client address caches
///   workload/   Zipf client population, sessions, dynamics
///   experiment/ configuration, full-site wiring, metrics, reporting
///
/// Typical entry points:
///   * experiment::SimulationConfig + experiment::run_replications — run a
///     scenario and read P(maxUtil < x) with confidence intervals;
///   * core::make_scheduler("DRR2-TTL/S_K", ...) — build a scheduler to
///     drive with your own traffic;
///   * experiment::parse_cli / load_scenario_file — the run_scenario
///     front-end's machinery, reusable in downstream tools.

// sim
#include "sim/event_queue.h"
#include "sim/process.h"
#include "sim/random.h"
#include "sim/simulator.h"
#include "sim/stats.h"
#include "sim/time.h"

// web
#include "web/cluster.h"
#include "web/dispatcher.h"
#include "web/types.h"
#include "web/web_server.h"

// geo
#include "geo/geo_model.h"

// core
#include "core/alarm_registry.h"
#include "core/proximity_policy.h"
#include "core/dal_policy.h"
#include "core/domain_model.h"
#include "core/load_estimator.h"
#include "core/mrl_policy.h"
#include "core/policy_factory.h"
#include "core/scheduler.h"
#include "core/selection_policies.h"
#include "core/selection_policy.h"
#include "core/ttl_policy.h"

// fault
#include "fault/dns_outage.h"
#include "fault/fault_injector.h"
#include "fault/fault_schedule.h"

// dnscache
#include "dnscache/client_cache.h"
#include "dnscache/name_server.h"
#include "dnscache/resolver.h"

// dnswire (RFC 1035 integration surface)
#include "dnswire/frontend.h"
#include "dnswire/message.h"

// workload
#include "workload/client.h"
#include "workload/domain_set.h"
#include "workload/think_time_model.h"

// experiment
#include "experiment/cli.h"
#include "experiment/config.h"
#include "experiment/metrics.h"
#include "experiment/report.h"
#include "experiment/runner.h"
#include "experiment/scenario_file.h"
#include "experiment/site.h"
