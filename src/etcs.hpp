/// \file etcs.hpp
/// Umbrella header: the full public API of the etcs-vss library.
///
/// Layered bottom-up; include this for applications, or the individual
/// headers for finer-grained dependencies.
#pragma once

// Foundations
#include "util/error.hpp"
#include "util/ids.hpp"
#include "util/units.hpp"

// SAT substrate
#include "sat/dimacs.hpp"
#include "sat/solver.hpp"
#include "sat/types.hpp"

// CNF construction and backends
#include "cnf/amo.hpp"
#include "cnf/backend.hpp"
#include "cnf/cardinality.hpp"

// Optimization
#include "opt/minimize.hpp"

// Railway modelling
#include "railway/discretize.hpp"
#include "railway/dot.hpp"
#include "railway/io.hpp"
#include "railway/network.hpp"
#include "railway/schedule.hpp"
#include "railway/segment_graph.hpp"
#include "railway/train.hpp"

// Simulation
#include "sim/simulator.hpp"

// Core: the paper's design and verification tasks
#include "core/analysis.hpp"
#include "core/encoder.hpp"
#include "core/instance.hpp"
#include "core/layout.hpp"
#include "core/tasks.hpp"
#include "core/validator.hpp"
