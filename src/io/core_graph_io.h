#pragma once

#include <iosfwd>
#include <string>

#include "mapping/core_graph.h"

namespace sunmap::io {

/// Plain-text core-graph format for driving SUNMAP from files. Grammar
/// (one statement per line, '#' starts a comment):
///
///   app <name>
///   core <name> <area_mm2>                      # soft block
///   core <name> hard <width_mm> <height_mm>     # hard block
///   core <name> soft <area_mm2> <min_aspect> <max_aspect>
///   flow <src_core> <dst_core> <bandwidth_MBps>
///
/// Example (the paper's Fig 10(a) DSP filter):
///
///   app dsp_filter
///   core arm 6.0
///   core memory hard 2.2 2.3
///   flow arm memory 200
///
/// Every area, width, height and bandwidth must be positive and finite,
/// and a soft block's aspect range must satisfy 0 < min <= max < inf.
/// Parse errors, and CoreGraph's refusals of such numbers, throw
/// std::runtime_error with the offending line number.
mapping::CoreGraph read_core_graph(std::istream& in);

/// Reads a core graph from a file path.
mapping::CoreGraph read_core_graph_file(const std::string& path);

/// Writes the graph in the same format; read_core_graph round-trips it.
void write_core_graph(const mapping::CoreGraph& app, std::ostream& out);

/// Serialises to a string (convenience for tests and tools).
std::string core_graph_to_string(const mapping::CoreGraph& app);

}  // namespace sunmap::io
