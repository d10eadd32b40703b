#pragma once
// Forwarding header for perfbench's ladder, which still names the committer
// srv::GroupCommitter.  The class is hercules::GroupCommitter.
#include "hercules/group_commit.hpp"

namespace herc::srv { using hercules::GroupCommitter; }
