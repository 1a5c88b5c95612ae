#include "etc/io.hpp"

#include <fstream>
#include <sstream>
#include <stdexcept>

namespace pacga::etc {

EtcMatrix read_braun(std::istream& in) {
  std::size_t tasks = 0, machines = 0;
  if (!(in >> tasks >> machines))
    throw std::runtime_error("read_braun: missing header");
  return read_braun(in, tasks, machines);
}

EtcMatrix read_braun(std::istream& in, std::size_t tasks, std::size_t machines) {
  std::vector<double> data(tasks * machines);
  for (std::size_t i = 0; i < data.size(); ++i) {
    if (!(in >> data[i])) {
      std::ostringstream msg;
      msg << "read_braun: expected " << data.size() << " values, got " << i;
      throw std::runtime_error(msg.str());
    }
  }
  return EtcMatrix(tasks, machines, std::move(data));
}

EtcMatrix read_braun_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("read_braun_file: cannot open " + path);
  return read_braun(in);
}

}  // namespace pacga::etc
