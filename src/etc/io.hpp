// Braun text format I/O.
//
// The de-facto file format of the Braun et al. distribution is one ETC
// value per line, task-major (all machines of task 0, then task 1, ...),
// optionally preceded by a header line "<tasks> <machines>". Files with or
// without it are accepted (headerless files must be loaded with explicit
// dimensions).
#pragma once

#include <iosfwd>
#include <string>

#include "etc/etc_matrix.hpp"

namespace pacga::etc {

/// Reads a file with the `<tasks> <machines>` header.
EtcMatrix read_braun(std::istream& in);
EtcMatrix read_braun_file(const std::string& path);

/// Reads a headerless stream of tasks*machines values (the original
/// distribution's layout, where dimensions are known out-of-band).
EtcMatrix read_braun(std::istream& in, std::size_t tasks, std::size_t machines);

}  // namespace pacga::etc
